"""Clifford simulation substrate: fault propagation, DEMs, sampling, tableau."""

from repro.sim.bitops import (
    pack_rows,
    packed_matmul_parity,
    popcount,
    unpack_rows,
    xor_reduce_rows,
)
from repro.sim.dem import DetectorErrorModel, ErrorMechanism, build_detector_error_model
from repro.sim.estimator import (
    LogicalErrorRates,
    basis_streams,
    count_wrong,
    decode_predictions,
    estimate_logical_error_rates,
    estimate_logical_error_rates_adaptive,
    fraction_wrong,
    rates_from_adaptive_estimates,
)
from repro.sim.frames import FrameSampler, TableauSampler
from repro.sim.propagation import SparsePauli, measurement_flips, propagate_fault
from repro.sim.sampler import DemSampler, SampleBatch, sample_detector_error_model
from repro.sim.tableau import DenseTableauSimulator, TableauSimulator, simulate_circuit

__all__ = [
    "DetectorErrorModel",
    "ErrorMechanism",
    "build_detector_error_model",
    "SparsePauli",
    "propagate_fault",
    "measurement_flips",
    "SampleBatch",
    "DemSampler",
    "FrameSampler",
    "TableauSampler",
    "sample_detector_error_model",
    "TableauSimulator",
    "DenseTableauSimulator",
    "simulate_circuit",
    "LogicalErrorRates",
    "basis_streams",
    "decode_predictions",
    "estimate_logical_error_rates",
    "estimate_logical_error_rates_adaptive",
    "count_wrong",
    "fraction_wrong",
    "rates_from_adaptive_estimates",
    "pack_rows",
    "unpack_rows",
    "popcount",
    "xor_reduce_rows",
    "packed_matmul_parity",
]
