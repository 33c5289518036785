"""``decide`` writes its golden bytes under other OpenBLAS kernels.

The logistic weights differ in their last bits from one BLAS kernel to
another, so the artifacts hold across hosts by margin: they stay
byte-identical unless a test row's top two logistic scores fall within
round-off of each other. Each child picks its kernel with
``OPENBLAS_CORETYPE``, set in that child's environment only.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, GOLDEN_DIR
from pathminer.cli import main

ALL_FOUR = "majority,naive-bayes,logistic,decision-tree"


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at load
    time, on x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dict form
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.fixture(scope="module")
def decide_runs(tmp_path_factory):
    """The golden of each ``decide`` run, and its argv without the output."""
    tmp = tmp_path_factory.mktemp("kernels")
    net, table_log, patients, cohort_log = (tmp / name for name in (
        "dejure.json", "table.xes", "patients.csv", "cohort.xes"))
    for argv in (["dejure", "--output", net],
                 ["transform", "--input", DATA_DIR / "patients_table.csv", "--output", table_log],
                 ["simulate", "--patients", "240", "--seed", "7", "--output", patients],
                 ["transform", "--input", patients, "--output", cohort_log]):
        assert main([str(a) for a in argv]) == 0
    runs = [("decide_p1.json", table_log, "p1", "majority")]
    runs += [(f"decide_sim240_{place}.json", cohort_log, place, ALL_FOUR) for place in ("p1", "p4")]
    return [(golden, ["decide", "--log", str(log), "--net", str(net), "--place", place,
                      "--classifiers", kinds, "--seed", "0"]) for golden, log, place, kinds in runs]


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on x86-64")
@pytest.mark.parametrize("kernel", [
    "Prescott",
    "Nehalem",
    pytest.param("Haswell", marks=pytest.mark.skipif(not _has_avx2(), reason="no avx2 on this CPU")),
])
def test_decide_writes_the_golden_bytes_under_another_kernel(kernel, decide_runs, tmp_path):
    # one child per kernel, since OpenBLAS reads the variable when it loads
    outputs = [tmp_path / golden for golden, _ in decide_runs]
    argvs = [argv + ["--output", str(out)] for (_, argv), out in zip(decide_runs, outputs)]
    child = "import json, sys\nfrom pathminer.cli import main\n" \
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
    result = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)], capture_output=True,
                            text=True, env={**os.environ, "OPENBLAS_CORETYPE": kernel})
    assert (result.returncode, result.stderr) == (0, "")
    for (golden, _), out in zip(decide_runs, outputs):
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes(), golden
