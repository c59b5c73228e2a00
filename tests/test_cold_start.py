"""The certificate commands and the package import run on numpy alone:
scipy is imported only inside the functions that compute with it, and
orjson only inside the CSV writer, so neither is in the start-up cost."""

import json
import os
import subprocess
import sys
from pathlib import Path

import memkern

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(memkern.__file__).resolve().parents[1]

SCIPY_MODULES = ("sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')")

ORJSON_MODULES = ("sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'orjson')")


def _fresh(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def test_import_loads_no_scipy():
    done = _fresh(f"import sys, memkern; print({SCIPY_MODULES})")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_cli_import_loads_no_scipy():
    done = _fresh(f"import sys, memkern.cli; print({SCIPY_MODULES})")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_import_and_config_parse_load_no_orjson():
    done = _fresh("import sys, memkern, memkern.cli\n"
                  "from memkern.config import parse_config\n"
                  f"parse_config({str(CONFIGS / 'harnack1d.json')!r})\n"
                  f"print({ORJSON_MODULES})")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_solve_wall_time_leaves_out_the_scipy_import(tmp_path):
    # the first grid solve of a process imports scipy's solvers before its
    # clock starts; the yosida1d solve itself takes about 0.01 s
    argv = ["solve", "--config", str(CONFIGS / "yosida1d.json"),
            "--out", str(tmp_path / "yosida1d")]
    done = _fresh("import sys\n"
                  "from memkern.cli import main\n"
                  f"main({argv!r})\n"
                  f"print({SCIPY_MODULES})")
    assert done.returncode == 0, done.stderr
    assert "scipy.linalg" in done.stdout
    manifest = json.loads((tmp_path / "yosida1d" / "manifest.json")
                          .read_text())
    assert 0.0 < manifest["wall_time"] < 0.1


def test_relaxation_solve_and_sonine_oracle_run_without_scipy(tmp_path):
    # the space-free solve and the first-kind oracle share one triangular
    # Toeplitz solve, which inverts its leading block with numpy
    out = tmp_path / "ode05"
    argv = ["solve", "--config", str(CONFIGS / "ode05.json"),
            "--out", str(out)]
    done = _fresh("import json, sys\n"
                  "from memkern.cli import main\n"
                  "from memkern.measure import MeasureSpec\n"
                  "from memkern.volterra import sonine_partner\n"
                  f"code = main({argv!r})\n"
                  "sonine_partner(MeasureSpec.single_order(0.5), 1/256, 256)\n"
                  f"print(json.dumps([code, {SCIPY_MODULES}]))")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 < manifest["wall_time"] < 0.1


def test_verify_and_kernels_run_without_scipy(tmp_path):
    runs = [["verify", "--config", str(CONFIGS / "single05.json"),
             "--out", str(tmp_path / "verify")],
            ["kernels", "--config", str(CONFIGS / "twoatom.json"),
             "--out", str(tmp_path / "kernels")]]
    done = _fresh("import json, sys\n"
                  "from memkern.cli import main\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  f"print(json.dumps([codes, {SCIPY_MODULES}]))")
    assert done.returncode == 0, done.stderr
    codes, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert scipy_modules == []
    assert (tmp_path / "verify" / "report.json").exists()
    assert (tmp_path / "kernels" / "kernel_one_star_k.csv").exists()
