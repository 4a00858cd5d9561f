"""Reference frame program: one kernel op per circuit instruction.

This is the original compile step of :class:`repro.sim.frames.FrameProgram`,
kept as the oracle for the moment-fused program.  Every instruction (after
the shared split of repeated qubits into disjoint runs) becomes its own
op, from the first reset to the last measurement, and every noise
instruction is handed to ``compile_noise`` alone, as a one-element run.

It has the production program's interface — ``num_qubits``,
``num_measurements``, ``detector_groups``, ``observable_groups``, ``ops``
and ``run(words, apply_noise)`` — and speaks the same ``compile_noise``
protocol, so a test can monkeypatch it in for either consumer (the DEM
builder or :class:`repro.sim.frames.FrameSampler`) and compare outputs bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.bitops import xor_reduce_rows
from repro.sim.frames import _CHECK_BITS, _check_record_targets, _disjoint_runs

__all__ = ["ReferenceFrameProgram"]


class ReferenceFrameProgram:
    """A circuit compiled into one op per instruction over packed frames."""

    def __init__(self, circuit: Circuit, compile_noise) -> None:
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        _check_record_targets(circuit, self.num_measurements)
        self.detector_groups = [list(members) for members in circuit.detectors()]
        observables = circuit.observables()
        self.observable_groups = [
            list(observables.get(index, ())) for index in range(circuit.num_observables)
        ]
        self.ops: list[tuple] = []
        measurement_index = 0
        for whole in circuit.instructions:
            for instruction in _disjoint_runs(whole):
                name = instruction.name
                if instruction.is_noise():
                    noise = compile_noise([instruction])
                    if noise is not None:
                        self.ops.append(("noise", noise))
                    continue
                if name in ("X", "Y", "Z") or not instruction.qubits:
                    continue
                qubits = np.asarray(instruction.qubits, dtype=np.intp)
                if name == "H":
                    self.ops.append(("swapxz", qubits))
                elif name == "S":
                    self.ops.append(("s", qubits))
                elif name == "CPAULI":
                    control, target = qubits.tolist()
                    if control == target:
                        raise ValueError(f"CPAULI needs two distinct qubits, got {control} twice")
                    check_x, check_z = _CHECK_BITS[instruction.pauli]
                    self.ops.append(("cpauli", control, target, check_x, check_z))
                elif name == "SWAP":
                    self.ops.append(("swap", qubits[::2], qubits[1::2]))
                elif name in ("R", "RX"):
                    self.ops.append(("reset", qubits))
                elif name in ("M", "MX"):
                    self.ops.append(("measure", qubits, name == "MX", measurement_index))
                    measurement_index += qubits.size

    def run(self, words: int, apply_noise) -> tuple[np.ndarray, np.ndarray]:
        """Propagate ``words``-wide frames; return packed detector and observable rows."""
        frame_x = np.zeros((self.num_qubits, words), dtype="<u8")
        frame_z = np.zeros((self.num_qubits, words), dtype="<u8")
        flips = np.zeros((self.num_measurements, words), dtype="<u8")
        for op in self.ops:
            kind = op[0]
            if kind == "noise":
                apply_noise(op[1], frame_x, frame_z)
            elif kind == "measure":
                _, qubits, x_basis, start = op
                source = frame_z if x_basis else frame_x
                flips[start : start + qubits.size] = source[qubits]
            elif kind == "cpauli":
                _, control, target, check_x, check_z = op
                if check_x:
                    frame_x[target] ^= frame_x[control]
                if check_z:
                    frame_z[target] ^= frame_x[control]
                if check_x and check_z:
                    frame_z[control] ^= frame_x[target] ^ frame_z[target]
                elif check_x:
                    frame_z[control] ^= frame_z[target]
                else:
                    frame_z[control] ^= frame_x[target]
            elif kind == "swapxz":
                _, qubits = op
                swapped = frame_x[qubits]
                frame_x[qubits] = frame_z[qubits]
                frame_z[qubits] = swapped
            elif kind == "s":
                _, qubits = op
                frame_z[qubits] ^= frame_x[qubits]
            elif kind == "swap":
                _, firsts, seconds = op
                first_x, first_z = frame_x[firsts], frame_z[firsts]
                frame_x[firsts], frame_z[firsts] = frame_x[seconds], frame_z[seconds]
                frame_x[seconds], frame_z[seconds] = first_x, first_z
            elif kind == "reset":
                _, qubits = op
                frame_x[qubits] = 0
                frame_z[qubits] = 0
        return (
            xor_reduce_rows(flips, self.detector_groups),
            xor_reduce_rows(flips, self.observable_groups),
        )
