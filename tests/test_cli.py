import contextlib
import csv
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csacode import cli, matfile
from csacode.ffield import PrimeField
from reference import lcc_threshold

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_csa_demo_config(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out = run_cli(capsys, "--output", str(out_path), "run",
                        str(DATA / "csa_demo.json"))
    assert code == 0
    result = json.loads(out_path.read_text())
    assert result["threshold"] == 5
    assert result["costs"]["theory"]["uploads"] == [[4, 1], [4, 1]]
    assert result["costs"]["theory"]["download"] == [5, 4]
    assert result["costs"]["measured"] == result["costs"]["theory"]
    # pinned: a change to the codes must leave the products byte-identical
    assert result["products_digest"] == (
        "sha256:ba4c335367ba6f19f8338eb2970bb6b22e3a0449b124e96d1a147bcd653d7983")
    # determinism: running again produces the identical document
    code2, out2 = run_cli(capsys, "run", str(DATA / "csa_demo.json"))
    assert code2 == 0 and json.loads(out2) == result


def test_run_rejects_threshold_above_servers(capsys, tmp_path):
    cfg = {
        "scheme": "csa", "servers": 4, "params": {"ell": 2, "kc": 2},
        "dims": [2, 2, 2], "batch": 4, "stragglers": {"count": 4},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == cli.EXIT_CONFIG
    err = json.loads(out)["error"]
    assert err["category"] == "validation"
    assert "R <= S" in err["message"]


def test_run_byzantine_over_budget_decode_failure(capsys, tmp_path):
    cfg = json.loads((DATA / "ncsa_byzantine_demo.json").read_text())
    cfg["byzantine"]["servers"] = [3, 4]  # budget is B = 1
    path = tmp_path / "over.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == cli.EXIT_DECODE
    assert json.loads(out)["error"]["category"] == "decode-failure"


def test_run_byzantine_within_budget(capsys):
    # pinned output: X-secure noise values are not part of it, so changing
    # how the noise is drawn moves neither the products nor the flagged set
    code, out = run_cli(capsys, "run", str(DATA / "ncsa_byzantine_demo.json"))
    assert code == 0
    result = json.loads(out)
    assert result["products_digest"] == (
        "sha256:56f24942d656ed076deb21bd03f3a487899b9ac4b1e6c8208cf171177303a9f9")
    assert result["flagged_servers"] == [3]


def test_run_forgers_without_a_byzantine_budget_is_a_config_error(capsys, tmp_path):
    # with B = 0 the forged answer once decoded to a wrong digest, unflagged
    cfg = json.loads((DATA / "ncsa_byzantine_demo.json").read_text())
    cfg["params"] = {"ell": 1, "kc": 1, "X": 1}
    path = tmp_path / "no_budget.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == cli.EXIT_CONFIG
    err = json.loads(out)["error"]
    assert err["category"] == "validation" and "Byzantine budget" in err["message"]


def test_run_missing_config_is_io_error(capsys):
    code, out = run_cli(capsys, "run", "/nonexistent/config.json")
    assert code == cli.EXIT_IO
    assert json.loads(out)["error"]["category"] == "io"


def test_run_lcc_has_the_lagrange_threshold(capsys, tmp_path):
    cfg = {
        "scheme": "lcc", "servers": 9, "params": {"kc": 4},
        "map": {"type": "matmul", "dims": [2, 2, 2]},
        "seeds": {"data": 1, "straggler": 2}, "stragglers": {"count": 8},
    }
    path = tmp_path / "lcc.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 0
    assert json.loads(out)["threshold"] == lcc_threshold(2, 4) == 7
    cfg["params"] = {"ell": 1, "kc": 4}  # the one ell LCC takes, given
    path.write_text(json.dumps(cfg))
    code, given = run_cli(capsys, "run", str(path))
    assert code == 0 and given == out
    cfg["params"] = {"ell": 2, "kc": 2}  # L = 4 again, but not the LCC layout
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == cli.EXIT_CONFIG
    assert json.loads(out)["error"]["category"] == "validation"
    # costs builds its setup the same way, so it rejects the same layout
    code = cli.main(["costs", "lcc", "--servers", "12", "--ell", "3", "--kc", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert "'lcc' takes parameters with ell=1" in captured.err


@pytest.mark.parametrize("modulus", [65536, 2**31 + 11])
def test_run_rejects_bad_field_modulus(capsys, tmp_path, modulus):
    cfg = json.loads((DATA / "csa_demo.json").read_text())
    cfg["field_modulus"] = modulus  # not prime; prime but not below 2**31
    path = tmp_path / "bad_q.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == cli.EXIT_CONFIG
    assert json.loads(out)["error"]["category"] == "validation"


def test_run_unwritable_output_is_io_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "result.json"
    code, out = run_cli(capsys, "--output", str(target), "run",
                        str(DATA / "csa_demo.json"))
    assert code == cli.EXIT_IO
    assert json.loads(out)["error"]["category"] == "io"


def test_run_malformed_matrix_file_is_io_error(capsys, tmp_path):
    (tmp_path / "a.mat").write_bytes(b"\x00" * 48)  # bad magic
    cfg = {
        "scheme": "csa", "servers": 5, "params": {"ell": 1, "kc": 2},
        "dims": [2, 2, 2], "batch": 2,
        "input_a": str(tmp_path / "a.mat"), "input_b": str(tmp_path / "a.mat"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == cli.EXIT_IO
    assert json.loads(out)["error"]["category"] == "io"


_CSA_CFG = {"scheme": "csa", "servers": 5, "params": {"ell": 1, "kc": 2}, "batch": 2}
_NCSA_CFG = {"scheme": "ncsa", "servers": 5, "params": {"ell": 1, "kc": 2}}
_ZERO_ROW_FILES = {"input_a": "zero-rows.mat", "input_b": "square.mat"}
_BYZANTINE_CFG = {"scheme": "ncsa", "servers": 7, "params": {"kc": 1, "X": 1, "B": 1},
                  "map": {"type": "matmul", "dims": [1, 1, 1]}}


@pytest.mark.parametrize("cfg, why", [
    pytest.param({**_CSA_CFG, "dims": [0, 2, 2]}, "shape (0, 2) have no elements", id="zero-dim"),
    pytest.param({**_CSA_CFG, "dims": [2, 0, 2]}, "shape (2, 0) have no elements",
                 id="zero-inner"),
    pytest.param({**_CSA_CFG, "dims": [-1, 2, 2]}, "negative dimensions", id="negative-dim"),
    pytest.param({**_CSA_CFG, "dims": [2.5, 2, 2]}, "each of dims must be an integer, not 2.5",
                 id="float-dim"),
    pytest.param({**_CSA_CFG, "dims": ["2", 2, 2]}, "each of dims must be an integer, not '2'",
                 id="string-dim"),
    pytest.param({**_NCSA_CFG, "map": {"type": "elementwise", "arity": 2, "dim": 0}},
                 "shape (0,) have no elements", id="zero-vector"),
    pytest.param({**_NCSA_CFG, "map": {"type": "matmul", "dims": [2, 0, 2]}},
                 "shape (2, 0) have no elements", id="zero-map-dim"),
    pytest.param({**_CSA_CFG, "dims": [0, 2, 2], **_ZERO_ROW_FILES},
                 "shape (0, 2) have no elements", id="zero-row-file"),
    pytest.param([1, 2, 3], "config must be a JSON object, not [1, 2, 3]", id="list"),
    pytest.param("csa", "config must be a JSON object, not 'csa'", id="string"),
    pytest.param(None, "config must be a JSON object, not None", id="null"),
    # non-integer values once ran truncated by int(), with exit 0
    pytest.param({**_CSA_CFG, "dims": [2, 2, 2], "stragglers": {"responsive": [0.5, 1, 2, 3]}},
                 "a responsive index must be an integer, not 0.5", id="float-responsive"),
    pytest.param({**_BYZANTINE_CFG, "byzantine": {"servers": [3.9]}},
                 "a corrupted index must be an integer, not 3.9", id="float-corrupted"),
    pytest.param({**_NCSA_CFG, "map": {"type": "elementwise", "arity": 2, "dim": 1.5}},
                 "dim must be an integer, not 1.5", id="float-map-dim"),
    pytest.param({**_CSA_CFG, "dims": [2, 2, 2], "params": {"ell": 1.9, "kc": 2}},
                 "ell must be an integer, not 1.9", id="float-ell"),
    # once refused as "responsive count out of range", for the wrong reason
    pytest.param({**_CSA_CFG, "dims": [2, 2, 2], "servers": 6.7},
                 "servers must be an integer, not 6.7", id="float-servers"),
    pytest.param({**_CSA_CFG, "dims": [2, 2, 2], "params": {"ell": True, "kc": 2}},
                 "ell must be an integer, not True", id="bool-ell"),
    pytest.param({**_CSA_CFG, "dims": [2, 2, 2], "batch": 2.0},
                 "batch must be an integer, not 2.0", id="float-batch"),
    # non-object sections once raised AttributeError, exit 1
    pytest.param({**_CSA_CFG, "dims": [2, 2, 2], "seeds": [1]},
                 "seeds must be a JSON object, not [1]", id="list-seeds"),
    pytest.param({**_NCSA_CFG, "map": "matmul"}, "map must be a JSON object, not 'matmul'",
                 id="string-map"),
    pytest.param({**_NCSA_CFG, "map": {"type": "elementwise", "arity": 2, "dim": 2},
                  "params": [1]}, "params must be a JSON object, not [1]", id="list-params"),
    # once ran a CSA round with no security, exit 0
    pytest.param({**_CSA_CFG, "dims": [2, 2, 2], "params": {"ell": 1, "kc": 2, "X": 1}},
                 "scheme 'csa' takes no parameter 'X'", id="csa-with-X"),
    # once a struct.error traceback from the noise stream's key, exit 1
    pytest.param({**_BYZANTINE_CFG, "seeds": {"noise": 2**70}},
                 "noise_seed 1180591620717411303424 lies outside", id="huge-noise-seed"),
])
def test_run_never_crashes_on_malformed_configs(capsys, tmp_path, cfg, why):
    # Every malformed input is a typed error with a JSON payload: exit 2 for
    # a bad config, 4 for a bad file; never exit 1 ("verify suite failed")
    # or a traceback.  The message names the refused value or rule, so a
    # config refused for another reason fails here.
    matfile.write_matrices(tmp_path / "zero-rows.mat", 65537,
                           [np.zeros((0, 2), dtype=np.int64)] * 2)
    matfile.write_matrices(tmp_path / "square.mat", 65537,
                           [np.ones((2, 2), dtype=np.int64)] * 2)
    if isinstance(cfg, dict) and "input_a" in cfg:
        cfg = {**cfg, "input_a": str(tmp_path / cfg["input_a"]),
               "input_b": str(tmp_path / cfg["input_b"])}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code in (cli.EXIT_CONFIG, cli.EXIT_IO)
    error = json.loads(out)["error"]
    assert set(error) == {"category", "message"}
    assert why in error["message"]


def test_run_with_matrix_files(capsys, tmp_path):
    field = PrimeField(65537)
    rng = np.random.default_rng(3)
    aa = [field.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [field.rand_matrix(rng, 2, 2) for _ in range(2)]
    matfile.write_matrices(tmp_path / "a.mat", field.q, aa)
    matfile.write_matrices(tmp_path / "b.mat", field.q, bb)
    cfg = {
        "scheme": "csa", "servers": 5, "params": {"ell": 1, "kc": 2},
        "dims": [2, 2, 2], "batch": 2,
        "input_a": str(tmp_path / "a.mat"), "input_b": str(tmp_path / "b.mat"),
        "stragglers": {"responsive": [0, 2, 4]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 0
    # digest must match the direct products of the loaded matrices
    products = [field.matmul(a, b) for a, b in zip(aa, bb)]
    assert json.loads(out)["products_digest"] == "sha256:" + cli._digest(products)


def test_run_ep_and_gcsa_configs(capsys, tmp_path):
    for scheme, params, servers, threshold in [
        ("ep", {"p": 2, "m": 2, "n": 2}, 12, 9),
        ("gcsa", {"ell": 1, "kc": 2, "p": 2, "m": 1, "n": 1}, 9, 7),
        ("csa-systematic", {"ell": 1, "kc": 2}, 5, 3),
    ]:
        cfg = {
            "scheme": scheme, "servers": servers, "params": params,
            "dims": [4, 4, 4], "batch": 2 if scheme != "ep" else 1,
            "seeds": {"data": 7, "straggler": 8},
            "stragglers": {"count": servers},
        }
        path = tmp_path / f"{scheme}.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, "run", str(path))
        assert code == 0, (scheme, out)
        result = json.loads(out)
        assert result["threshold"] == threshold
        assert result["costs"]["measured"]["download"] == \
            result["costs"]["theory"]["download"]


def test_costs_rows(capsys):
    code, out = run_cli(capsys, "costs", "csa", "--servers", "8",
                        "--ell", "2", "--kc", "2")
    assert code == 0 and out.strip() == "csa R=5 U=4/1 4/1 D=5/4"
    code, out = run_cli(capsys, "costs", "gcsa", "--servers", "15",
                        "--ell", "1", "--kc", "2", "--p", "1", "--m", "2",
                        "--n", "2")
    assert code == 0 and "R=12" in out
    code, out = run_cli(capsys, "costs", "ncsa", "--servers", "9",
                        "--N", "3", "--ell", "2", "--kc", "2")
    assert code == 0 and "R=6" in out
    code, out = run_cli(capsys, "costs", "lcc", "--servers", "9",
                        "--N", "2", "--kc", "4")
    assert code == 0 and "R=7" in out


def test_costs_invalid_params(capsys):
    code, _ = run_cli(capsys, "costs", "csa", "--servers", "3",
                      "--ell", "2", "--kc", "2")
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv, code", [
    # each option was once ignored when its scheme did not take it
    ("csa --servers 8 --ell 2 --kc 2 --X 1", cli.EXIT_CONFIG),
    ("ep --servers 12 --p 2 --m 2 --n 2 --ell 3", cli.EXIT_CONFIG),
    ("gcsa --servers 30 --ell 1 --kc 2 --p 2 --N 3", cli.EXIT_CONFIG),
    ("csa-systematic --servers 8 --kc 2 --B 1", cli.EXIT_CONFIG),
    ("ncsa --servers 20 --kc 2 --m 2", cli.EXIT_CONFIG),
    ("lcc --servers 9 --kc 4 --p 1", cli.EXIT_CONFIG),
    # an option the scheme takes, even at its default value
    ("ep --servers 12 --p 2 --m 2 --n 2", cli.EXIT_OK),
    ("csa --servers 8 --ell 1 --kc 2", cli.EXIT_OK),
    ("ncsa --servers 20 --N 3 --ell 2 --kc 2 --X 1 --B 1", cli.EXIT_OK),
    ("lcc --servers 9 --N 2 --kc 4", cli.EXIT_OK),
])
def test_costs_refuses_an_option_its_scheme_does_not_take(capsys, argv, code):
    assert cli.main(["costs", *argv.split()]) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_CONFIG:
        assert out == "" and "takes no parameter" in err


@pytest.mark.parametrize("name,family,servers,r_max,pmn", [
    ("hull_ep_s30_r25.csv", "ep", 30, 25, None),
    ("hull_csa_s30_r25.csv", "csa", 30, 25, None),
    ("hull_gcsa_s300_r250_pmn27.csv", "gcsa", 300, 250, 27),
])
def test_hull_golden_files(tmp_path, capsys, name, family, servers, r_max, pmn):
    out = tmp_path / "hull.csv"
    argv = ["hull", family, "--servers", str(servers), "--r-max", str(r_max),
            "--output", str(out)]
    if pmn is not None:
        argv += ["--pmn-bound", str(pmn)]
    code = cli.main(argv)
    assert code == 0
    assert out.read_text() == (DATA / name).read_text()


def test_latency_csv_with_plateau_row(capsys, tmp_path):
    out = tmp_path / "lat.csv"
    code = cli.main(["latency", "--job-size", "100", "--eta", "0.75",
                     "--k-min", "0.5", "--k-max", "24.5", "--steps", "25",
                     "--output", str(out)])
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    first = rows[0]
    assert float(first["K"]) == 0.5
    assert float(first["gcsa_upper"]) == 532.0  # pure batch fallback point
    assert first["p"] == "1" and first["m"] == "1"
    for row in rows[1:]:
        assert float(row["gcsa_upper"]) < float(row["ep_lower"])


def test_hull_refuses_a_pmn_bound_below_one(capsys):
    # once printed only the header, with exit 0
    code = cli.main(["hull", "gcsa", "--servers", "10", "--r-max", "8", "--pmn-bound", "0"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and out == "" and "pmn bound" in err


@contextlib.contextmanager
def _within_10_s():
    """SIGALRM bounds the block to 10 s: a command that does not return fails
    the test (a BaseException, which no handler of the cli catches)."""
    def timeout(signum, frame):
        pytest.fail("the command did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_latency_near_the_float_maximum_returns(capsys):
    # the search for m once ran about 10^102 steps here, and the last grid
    # point overflowed to inf
    with _within_10_s():
        code = cli.main(["latency", "--job-size", "2", "--k-min", "1", "--k-max", "1e308",
                         "--steps", "3"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [float(r["K"]) for r in rows] == [1.0, 5e307, 1e308]
    for row in rows:
        assert int(row["p"]) * int(row["m"]) ** 2 >= float(row["K"])
        assert math.isfinite(float(row["ep_lower"]))  # once inf from an m^3 term


@pytest.mark.parametrize("bounds", [("nan", "2"), ("1", "inf")])
def test_latency_refuses_a_non_finite_k(capsys, tmp_path, bounds):
    # once a ValueError traceback and exit 1, the code of a failed verify
    out = tmp_path / "lat.csv"
    code = cli.main(["latency", "--job-size", "100", "--eta", "0.75",
                     "--k-min", bounds[0], "--k-max", bounds[1], "--steps", "3",
                     "--output", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "finite K" in capsys.readouterr().err
    assert not out.exists()


def test_verify_known_suite(capsys):
    code, out = run_cli(capsys, "verify", "csa-oracle")
    assert code == 0
    assert out.strip() == "PASS csa-oracle"


def test_verify_security_suite(capsys):
    code, out = run_cli(capsys, "verify", "security-exhaustive")
    assert code == 0 and "PASS" in out


def test_verify_unknown_suite_usage_error(capsys):
    code = cli.main(["verify", "definitely-not-a-suite"])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("q", [65537, 2147483629])
def test_verify_all_passes_every_suite(capsys, q):
    # pinned stdout and exit code
    code, out = run_cli(capsys, "--field-modulus", str(q), "verify", "all")
    assert code == cli.EXIT_OK
    assert out.splitlines() == [f"PASS {name}" for name in (
        "field-axioms", "csa-oracle", "ep-oracle", "gcsa-oracle", "security-exhaustive",
        "byzantine-exhaustive", "systematic-parity", "cost-accounting",
        "interference-rank")]


def test_verify_all_at_a_small_field_reports_errors(capsys):
    # GF(13) has too few points for gcsa-oracle and interference-rank: each
    # reports ERROR and the other suites still run
    code = cli.main(["--field-modulus", "13", "verify", "all"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == cli.EXIT_CONFIG
    assert sum(line.startswith("PASS ") for line in lines) == 7
    assert [line for line in lines if line.startswith("ERROR ")] == [
        "ERROR gcsa-oracle: evaluation points must be pairwise distinct",
        "ERROR interference-rank: evaluation points must be pairwise distinct"]
    assert len(lines) == len(cli.SUITES)
    assert "Traceback" not in captured.out + captured.err


def test_verify_failure_outranks_error(capsys, monkeypatch):
    def cannot_run(field):
        raise cli.ParameterError("too few points")

    monkeypatch.setattr(cli, "SUITES", {"fails": lambda field: False,
                                        "errs": cannot_run,
                                        "passes": lambda field: True})
    code, out = run_cli(capsys, "verify", "all")
    assert code == cli.EXIT_FAIL
    assert out.splitlines() == ["FAIL fails", "ERROR errs: too few points", "PASS passes"]
    del cli.SUITES["fails"]
    code, _ = run_cli(capsys, "verify", "all")
    assert code == cli.EXIT_CONFIG


_HUGE = 99999999999999999999  # servers: far more evaluation points than GF(q) holds
_BILLIONS = f"--field-modulus 2147483629 costs csa --servers {2 * 10**9}"
# Rows that allocate without bound run in a subprocess under this cap on its
# address space, so they end in a MemoryError instead of exhausting the host.
# The costs row keeps its canonical points as ranges, so it fits the cap.
_ADDRESS_SPACE = {"run {tmp}/huge-dims.json": 2 << 30, _BILLIONS: 256 << 20}


def _capped_main(argv: list, limit: int) -> tuple[int, str]:
    """``cli.main(argv)`` in a subprocess with ``limit`` bytes of address
    space and one BLAS thread: its exit code, and its stdout and stderr."""
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
              "from csacode import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout + done.stderr


@pytest.mark.parametrize("argv, code", [
    # once built every default sample as a Python int, and did not return
    (f"costs csa --servers {_HUGE}", cli.EXIT_CONFIG),
    (f"costs ncsa --servers {_HUGE} --kc 2", cli.EXIT_CONFIG),
    ("run {tmp}/huge-csa.json", cli.EXIT_CONFIG),
    ("run {tmp}/huge-ncsa.json", cli.EXIT_CONFIG),
    ("run {tmp}/missing.json", cli.EXIT_IO),
    # numpy once raised its MemoryError from rng.integers, with exit 1
    ("run {tmp}/huge-dims.json", cli.EXIT_CONFIG),
    (_BILLIONS, cli.EXIT_OK),  # once built every point until memory ran out
    ("--field-modulus 65536 costs csa --servers 8", cli.EXIT_CONFIG),  # not a prime
    ("costs csa --servers 0", cli.EXIT_CONFIG),
    ("costs csa --servers 8 --ell 2 --kc 2", cli.EXIT_OK),
    ("costs lcc --servers 9 --kc 2 --ell 2", cli.EXIT_CONFIG),  # LCC is N-CSA with ell = 1
    ("costs lcc --servers 9 --kc 4 --ell 1", cli.EXIT_OK),
    ("hull csa --servers 5 --r-max 5", cli.EXIT_CONFIG),
    ("hull nope --servers 10 --r-max 5", cli.EXIT_CONFIG),
    (f"hull gcsa --servers {_HUGE} --r-max 8", cli.EXIT_OK),
    # R_max above analysis.R_MAX_LIMIT: these once enumerated for minutes
    ("hull ep --servers 100000 --r-max 99999", cli.EXIT_CONFIG),
    ("hull csa --servers 100000 --r-max 99999", cli.EXIT_CONFIG),
    ("hull gcsa --servers 3001 --r-max 3000", cli.EXIT_CONFIG),
    ("hull csa --servers 1001 --r-max 1000", cli.EXIT_OK),  # the maximum itself
    ("latency --job-size 2 --k-min 1 --k-max 2 --steps 0", cli.EXIT_CONFIG),
    ("latency --job-size 2 --eta 1.5 --k-min 1 --k-max 2 --steps 3", cli.EXIT_CONFIG),
    ("latency --job-size 0 --k-min 1 --k-max 2 --steps 3", cli.EXIT_CONFIG),
    ("verify", cli.EXIT_CONFIG),  # no suite
    ("verify nope", cli.EXIT_CONFIG),
    ("verify interference-rank", cli.EXIT_OK),
    ("--field-modulus 13 verify interference-rank", cli.EXIT_CONFIG),  # too few points
])
def test_every_command_line_ends_with_its_documented_exit_code(capsys, tmp_path, argv, code):
    # the exit codes of the cli module docstring, argparse's usage errors
    # (exit 2) included, within 10 s and without a traceback
    for name, cfg in (("huge-csa", {**_CSA_CFG, "dims": [2, 2, 2], "servers": _HUGE}),
                      ("huge-ncsa", {**_BYZANTINE_CFG, "byzantine": {"servers": [3]},
                                     "servers": _HUGE}),
                      ("huge-dims", {**_CSA_CFG, "dims": [10**6, 10**6, 1]})):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    words = [word.format(tmp=tmp_path) for word in argv.split()]
    with _within_10_s():
        if argv in _ADDRESS_SPACE:
            got, out = _capped_main(words, _ADDRESS_SPACE[argv])
        else:
            try:
                got = cli.main(words)
            except SystemExit as exc:  # argparse refused the command line
                got = exc.code
            out = "".join(capsys.readouterr())
    assert got == code
    assert "Traceback" not in out


def test_costs_row_at_two_billion_servers_builds_no_points():
    # the canonical points stay ranges (distinct when L + S < q), so the
    # closed form prints its row under the 256 MiB address-space cap
    code, out = _capped_main(_BILLIONS.split(), _ADDRESS_SPACE[_BILLIONS])
    assert (code, out) == (cli.EXIT_OK, "csa R=1 U=2000000000/1 2000000000/1 D=1/1\n")
