"""The baseline: the same operation run on a frozen copy of the library.

The speed of a shared machine drifts by 20 % or more over tens of
seconds, and its two CPUs differ by up to 40 %, so the wall time of the
same operation differs between runs by more than any useful regression
bound.  ``baseline_lib/ring_spectra`` is a verbatim copy of the library
as it was when this benchmark was defined.  After each operation on the
library under test, the same input goes through the same operation on
the copy, on the same CPU, right before or after it.  Both suffer the
same slowdowns, and their ratio keeps only what a change to the library
does.  The copy never changes, so a ratio of 0.8 means the library does
that operation in 80 % of the time it took when the benchmark was
defined.

The copy runs in a child process (two packages cannot share the name
``ring_spectra`` in one process), which also keeps its memory out of the
peak RSS of the workload.  The child is the runner itself, started with
``--baseline``, so that both processes pin BLAS, threads, CPUs and the
allocator the same way.  It sets up the workload's kernel, warms it up
and prints ``ready``.  For each line ``<spec>`` it reads, it runs one
operation on ``parse_bc(<spec>)`` and prints its wall time in ms,
whether the operation returned or raised.  It exits at end of input.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
LIB = HERE / "baseline_lib"


class Baseline:
    """The frozen library in a child process."""

    def __init__(self, workload: str):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
             "--seconds", "0", "--trace", "0", "--baseline"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()  # "ready"

    def _read(self) -> str:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline process exited with {self._proc.wait()}")
        return line.strip()

    def time_ms(self, spec: str) -> float:
        """Wall time of one operation on the input ``spec``."""
        self._proc.stdin.write(spec + "\n")
        self._proc.stdin.flush()
        return float(self._read())

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


def serve(workload: str, stdin=sys.stdin, stdout=sys.stdout) -> None:
    """The child's loop; ``ring_spectra`` must not be imported yet."""
    sys.path[:0] = [str(LIB), str(HERE)]
    import ring_spectra as rs

    if not Path(rs.__file__).resolve().is_relative_to(LIB):
        raise RuntimeError(f"ring_spectra imported from {rs.__file__}, not {LIB}")
    from workloads import WORKLOADS, Case

    w = WORKLOADS[workload]
    kernel = w.kernel()
    bcs: dict[str, Case] = {}

    def run(spec: str) -> float:
        if spec not in bcs:
            bcs[spec] = Case("random", float("nan"), spec, rs.parse_bc(spec))
        t0 = time.perf_counter()
        try:
            w.run(bcs[spec], kernel)
        except Exception:
            pass  # the defect of the copy is timed like a returning op
        return (time.perf_counter() - t0) * 1e3

    run(w.cases(0)[0].spec)  # warm-up
    stdout.write("ready\n")
    stdout.flush()
    for line in stdin:
        stdout.write(f"{run(line.strip())!r}\n")
        stdout.flush()

