import hashlib
import json
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

from geowl import oracle
from geowl.cli import _config_from, build_parser, main
from geowl.config import RunConfig
from geowl.cloudfile import cloud_to_json, load_cloud, parse_cloud_text, save_cloud
from geowl.geometry import PointCloud

SQUARE_DOC = {"dim": 2, "points": [[[0, 1], [0, 1]], [[1, 1], [0, 1]],
                                   [[1, 1], [1, 1]], [[0, 1], [1, 1]]],
              "label": "square"}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_cloud_file_round_trip(tmp_path):
    cloud = PointCloud(2, ((F(1, 3), F(-2, 7)), (F(0), F(4))), label="x")
    path = tmp_path / "c.json"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert back.points == cloud.points and back.exact


def test_cloud_file_coordinate_forms():
    doc = {"dim": 2, "points": [["0.5", [1, 3]], [2, "3/4"]]}
    cloud = parse_cloud_text(json.dumps(doc))
    assert cloud.points == ((F(1, 2), F(1, 3)), (F(2), F(3, 4)))
    assert cloud.exact
    floaty = parse_cloud_text(json.dumps({"dim": 1, "points": [[0.25], [1]]}))
    assert not floaty.exact  # plain floats force float mode


def test_cloud_file_xyz_form():
    cloud = parse_cloud_text("0 0 1\n1 0.5 2\n")
    assert cloud.dim == 3 and cloud.n == 2 and cloud.exact


def test_cmd_color_and_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, "sq.json", SQUARE_DOC)
    out = tmp_path / "fp.json"
    assert main(["color", path, "--ell", "1", "--iters", "3",
                 "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "iteration 0: 1 color classes" in text
    doc = json.loads(out.read_text())
    assert doc["ell"] == 1 and doc["iters"] == 3 and doc["total"] == 4

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["color", str(bad)]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["color", missing]) == 2


def test_cmd_color_cap_exceeded(tmp_path, capsys):
    big = {"dim": 3, "points": [[[i, 1], [j, 1], [k, 1]]
                                for i in range(4) for j in range(4)
                                for k in range(4)][:50]}
    path = _write(tmp_path, "big.json", big)
    assert main(["color", path, "--ell", "3", "--iters", "1"]) == 3


def test_cmd_search_cap_exceeded(capsys):
    assert main(["search", "--d", "3", "--n", "50", "--ell", "3", "--budget", "1"]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


def test_wlnd_roundtrip_past_the_float_range_exits_without_a_traceback(tmp_path, capsys):
    # anchors 1e-300 apart and the other points at 1e100: the Gram entries span
    # past the float range.  The depth bound's floats saturate to inf and the
    # render scales each Gram factor into range, so the first candidate is
    # certified; the oracle rejects the render (exit 1, verification failure)
    pts = [(0, 0, 0), (1e-300, 0, 0), (0, 1e100, 0), (0, 0, 1e100), (1e100, 1e100, 1e100)]
    path = _write(tmp_path, "gap100.json", {"points": [[str(F(x)) for x in p] for p in pts]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["roundtrip", path, "--algorithm", "wlnd"]) == 1
    out = capsys.readouterr().out
    assert "candidates_tried: 1" in out.splitlines() and "verified: no" in out.splitlines()


def test_cmd_compare(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"dim": 1, "points": [[0], [1], [2]]})
    b = _write(tmp_path, "b.json", {"dim": 1, "points": [[0], [1], [3]]})
    assert main(["compare", a, a, "--ell", "1", "--iters", "3"]) == 0
    assert "equal-fingerprints" in capsys.readouterr().out
    assert main(["compare", a, b, "--ell", "1", "--iters", "3"]) == 0
    assert "first distinguishing iteration: 1" in capsys.readouterr().out
    c = _write(tmp_path, "c.json", {"dim": 2, "points": [[0, 0], [1, 1]]})
    assert main(["compare", a, c]) == 2


def test_cmd_roundtrip_all_algorithms(tmp_path, capsys):
    sq = _write(tmp_path, "sq.json", SQUARE_DOC)
    assert main(["roundtrip", sq, "--algorithm", "wl2d"]) == 0
    assert "verified: yes" in capsys.readouterr().out
    assert main(["roundtrip", sq, "--algorithm", "oneshot"]) == 0
    tet = _write(tmp_path, "tet.json",
                 {"dim": 3, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["roundtrip", tet, "--algorithm", "wlnd",
                 "-o", str(tmp_path / "rep.json")]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["verified"] and rep["residual"] < 1e-6
    # dimension mismatch is a usage error
    assert main(["roundtrip", tet, "--algorithm", "wl2d"]) == 2


def test_cmd_gen_deterministic(tmp_path, capsys):
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    assert main(["gen", "--n", "5", "--d", "2", "--seed", "11", "-o", str(out1)]) == 0
    assert main(["gen", "--n", "5", "--d", "2", "--seed", "11", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    cloud = load_cloud(out1)
    assert cloud.n == 5 and cloud.exact


def test_cli_outputs_byte_identical(tmp_path, capsys):
    sq = _write(tmp_path, "sq.json", SQUARE_DOC)
    outputs = []
    for out in ("r1.json", "r2.json"):
        main(["roundtrip", sq, "--algorithm", "wl2d", "-o", str(tmp_path / out)])
        outputs.append((tmp_path / out).read_bytes())
        capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_cmd_search_deterministic(tmp_path, capsys):
    outs = []
    for name in ("s1.json", "s2.json"):
        assert main(["search", "--d", "1", "--n", "3", "--ell", "1",
                     "--iters", "1", "--budget", "10", "--seed", "3",
                     "-o", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
        capsys.readouterr()
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["params"]["budget"] == 10
    assert isinstance(doc["findings"], list)


def test_seed_env_var_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GEOWL_SEED", "99")
    out1 = tmp_path / "e1.json"
    assert main(["gen", "--n", "4", "--d", "2", "-o", str(out1)]) == 0
    monkeypatch.delenv("GEOWL_SEED")
    out2 = tmp_path / "e2.json"
    assert main(["gen", "--n", "4", "--d", "2", "--seed", "99", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv", [["color", "c.json"], ["compare", "a.json", "b.json"],
                                  ["roundtrip", "c.json", "--algorithm", "wl2d"],
                                  ["search", "--d", "2", "--n", "4"]])
def test_run_options_default_to_run_config(argv, monkeypatch):
    # GEOWL_SEED stands in for an absent --seed; every other default is RunConfig's own
    monkeypatch.setenv("GEOWL_SEED", "0")
    assert _config_from(build_parser().parse_args(argv)) == RunConfig()


def test_console_entry_point(tmp_path):
    # one subprocess sanity check of the installed script path
    proc = subprocess.run([sys.executable, "-m", "geowl.cli", "gen", "--n", "3",
                           "--d", "2", "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 2


@pytest.mark.parametrize("options", [
    "--n 10 --d 1 --grid 1 --span 1",   # more points than grid positions: used to hang
    "--n 2 --d 0",
    "--n 4 --d 2 --grid 0",             # used to end in a ZeroDivisionError traceback
])
def test_gen_rejects_impossible_grids_at_once(options):
    proc = subprocess.run([sys.executable, "-m", "geowl.cli", "gen", *options.split()],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_closed_stdout_is_not_a_parse_error():
    # `geowl ... | head`: the reader is gone before anything is written
    proc = subprocess.Popen([sys.executable, "-m", "geowl.cli", "gen", "--n", "40",
                             "--d", "2", "--seed", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == b""


# sha256 of stdout, a NUL byte and the -o file; exact-mode outputs are portable
GOLDEN_SHA256 = {
    "gen": "8cb5e81b8d089e31d5ccdf9f5a758d0d9ee38cf3089f7979a20749b348493563",
    "color": "8ed9998351ca8f05cc697aae5a9a55ae370b0c5f1d84effe43fa2d2f1b520391",
    "compare-equal": "f9371161f065c01e2be982d4dda5cf312f669e24447cc3bb786d95c5f90103cf",
    "compare-different": "66b2af0e5e4be807d3095ddcdcff2270413ab45d489899e81c2372188ff990db",
    "search": "cd002d1b35dfc82dbf340f36db30b6ad46d9c3e82241be12476b96e28aabe067",
}

# roundtrip coordinates depend on the LAPACK build, so only these lines are pinned
GOLDEN_ROUNDTRIP = {
    "wl2d": ["method: wl2d", "rounds: 10", "verified: yes"],
    "wlnd": ["method: nd-fulldim", "depth: 0", "candidates_tried: 1", "verified: yes"],
    "oneshot": ["method: oneshot-halfspace", "candidates_tried: 1", "verified: yes"],
}


def _cli_bytes(argv, out, capsys) -> bytes:
    assert main(argv + ["-o", str(out)]) == 0, argv
    return capsys.readouterr().out.encode() + b"\0" + out.read_bytes()


def test_cli_golden_output(tmp_path, capsys):
    a, b, moved = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "moved.json"
    got = {"gen": _cli_bytes(["gen", "--n", "6", "--d", "2", "--seed", "5"], a, capsys)}
    _cli_bytes(["gen", "--n", "6", "--d", "2", "--seed", "6"], b, capsys)
    save_cloud(oracle.apply_random_isometry(load_cloud(a), 1), moved)
    got["color"] = _cli_bytes(["color", str(a), "--ell", "2", "--iters", "3"],
                              tmp_path / "fp.json", capsys)
    got["compare-equal"] = _cli_bytes(["compare", str(a), str(moved), "--ell", "2",
                                       "--iters", "3"], tmp_path / "eq.json", capsys)
    got["compare-different"] = _cli_bytes(["compare", str(a), str(b), "--ell", "2",
                                           "--iters", "3"], tmp_path / "ne.json", capsys)
    got["search"] = _cli_bytes(["search", "--d", "2", "--n", "5", "--ell", "1",
                                "--iters", "0", "--budget", "6", "--seed", "1"],
                               tmp_path / "s.json", capsys)
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == GOLDEN_SHA256


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_ROUNDTRIP))
def test_cli_golden_roundtrip_lines(tmp_path, capsys, algorithm):
    cloud = tmp_path / "cloud.json"
    d = "3" if algorithm == "wlnd" else "2"
    _cli_bytes(["gen", "--n", "6", "--d", d, "--seed", "5"], cloud, capsys)
    stdout = _cli_bytes(["roundtrip", str(cloud), "--algorithm", algorithm],
                        tmp_path / "rep.json", capsys).decode().split("\0")[0]
    lines = [line for line in stdout.splitlines() if not line.startswith("residual:")]
    assert lines == GOLDEN_ROUNDTRIP[algorithm]


@pytest.mark.parametrize("argv", [
    ["color", "c.json", "--seed", "1"],
    ["compare", "a.json", "b.json", "--jobs", "2"],
    ["roundtrip", "c.json", "--algorithm", "wl2d", "--iters", "3"],
    ["roundtrip", "c.json", "--algorithm", "wl2d", "--jobs", "2"],
    ["search", "--d", "1", "--n", "3", "--tol", "1e-6"],
    ["search", "--d", "1", "--n", "3", "--max-depth", "4"],
])
def test_unread_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_roundtrip_max_candidates_caps_oneshot(tmp_path, capsys):
    cloud, out = tmp_path / "cloud.json", tmp_path / "rep.json"
    _cli_bytes(["gen", "--n", "6", "--d", "2", "--seed", "4"], cloud, capsys)
    assert main(["roundtrip", str(cloud), "--algorithm", "oneshot", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verified"] and doc["counters"]["candidates_tried"] >= 2
    assert main(["roundtrip", str(cloud), "--algorithm", "oneshot",
                 "--max-candidates", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def _inline_pool(monkeypatch, cpus):
    """Replace the search's process pool by one that records its size and maps
    in this process, on a machine of `cpus` cores; no process is started."""
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("geowl.cli.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("geowl.cli.os.cpu_count", lambda: cpus)
    return workers


def test_search_starts_one_worker_per_shard(tmp_path, capsys, monkeypatch):
    workers = _inline_pool(monkeypatch, 8)
    argv = ["search", "--d", "2", "--n", "5", "--budget", "2"]
    serial = _cli_bytes(argv + ["--jobs", "1"], tmp_path / "serial.json", capsys)
    sharded = _cli_bytes(argv + ["--jobs", "8"], tmp_path / "sharded.json", capsys)
    assert workers == [2]
    assert sharded == serial


@pytest.mark.parametrize("cpus, want", [(3, 3), (None, 1)])
def test_search_workers_are_capped_at_the_cpu_count(tmp_path, capsys, monkeypatch, cpus, want):
    workers = _inline_pool(monkeypatch, cpus)
    argv = ["search", "--d", "2", "--n", "5", "--budget", "8"]
    serial = _cli_bytes(argv + ["--jobs", "1"], tmp_path / "serial.json", capsys)
    sharded = _cli_bytes(argv + ["--jobs", "1000"], tmp_path / "sharded.json", capsys)
    assert workers == [want]
    assert sharded == serial


@pytest.mark.parametrize("points", [
    '[[[1, 0], 0], [0, 1]]',
    '[["1/0", 0], [0, 1]]',
    '[[NaN, 0.5], [0, 1]]',
    '[[Infinity, 0.5], [0, 1]]',
    # finite coordinates whose squared distances leave the float snapping grid
    '[[1e308, 0.0], [-1e308, 0.5], [0.0, 1.0]]',
    '[[1e308, 0.0], [-1e308, 0.5], [0.0, 1.0]] --mode exact',
    '[[1e150, 0.0], [-1e150, 0.5], [0.0, 1.0]]',
    '[["1e200", 0], ["-1e200", "1/2"], [0, 1]] --mode float',
    '[[1e140, 0.0], [-1e140, 0.5], [0.0, 1.0]] --tol 1e-30',
    # a float cloud with an exact coordinate past the float range
    '[[1.5, 0], [1' + '0' * 400 + ', 0]]',
    # points that are not a list of coordinate lists
    '5',
    '[1, 2]',
])
def test_bad_coordinates_are_parse_errors(tmp_path, capsys, points):
    points, *options = points.split(" --")
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "points": ' + points + '}', encoding="utf-8")
    assert main(["color", str(path), *(w for o in options for w in ("--" + o).split())]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("dim", ['[1]', '"1"', 'true', '1.5'])
def test_non_integer_dim_is_a_parse_error(tmp_path, capsys, dim):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": ' + dim + ', "points": [[1], [2]]}', encoding="utf-8")
    assert main(["color", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_is_rejected(tmp_path, capsys, tol):
    cloud = tmp_path / "cloud.json"
    _cli_bytes(["gen", "--n", "5", "--d", "2", "--seed", "1"], cloud, capsys)
    for argv in (["color", str(cloud)], ["roundtrip", str(cloud), "--algorithm", "wl2d"]):
        assert main(argv + ["--tol", tol, "-o", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err.startswith("error: tol must be positive")
    assert not (tmp_path / "out.json").exists()


def test_roundtrip_max_depth_is_honoured(tmp_path, capsys):
    cloud = tmp_path / "cloud.json"
    for seed, lines in [
        (5, ["method: nd-fulldim", "depth: 0", "candidates_tried: 1", "verified: yes"]),
        # the first candidate needs depth 2, so cap 1 rejects it and three more
        (9, ["method: nd-fulldim", "depth: 0", "candidates_tried: 5", "verified: yes"]),
    ]:
        _cli_bytes(["gen", "--n", "6", "--d", "3", "--seed", str(seed)], cloud, capsys)
        stdout = _cli_bytes(["roundtrip", str(cloud), "--algorithm", "wlnd",
                             "--max-depth", "1"],
                            tmp_path / "rep.json", capsys).decode().split("\0")[0]
        assert [line for line in stdout.splitlines()
                if not line.startswith("residual:")] == lines, seed


def test_roundtrip_counts_wlnd_failure_reasons(tmp_path, capsys):
    # `gen --n 10 --d 3 --seed 3`: the Monte Carlo cone-angle order tried 20 candidates
    cloud, out = tmp_path / "cloud.json", tmp_path / "rep.json"
    _cli_bytes(["gen", "--n", "10", "--d", "3", "--seed", "3"], cloud, capsys)
    stdout = _cli_bytes(["roundtrip", str(cloud), "--algorithm", "wlnd"], out,
                        capsys).decode().split("\0")[0]
    assert [line for line in stdout.splitlines() if not line.startswith("residual:")] == [
        "method: nd-fulldim", "depth: 3", "candidates_tried: 3", "verified: yes"]
    counters = json.loads(out.read_text())["counters"]
    assert counters["failures"] == {"depth_cap": 0, "both_in_region": 0, "unmatched": 2,
                                    "fingerprint_mismatch": 0, "other": 0}
    assert sum(counters["failures"].values()) == counters["candidates_tried"] - 1


def test_roundtrip_verifies_the_nearly_planar_wlnd_cloud(tmp_path, capsys):
    # `gen --n 4 --d 3 --seed 3000` is nearly planar (its centred smallest singular
    # value is 4.0e-4); the float elimination returned a cloud the oracle rejects
    cloud = tmp_path / "cloud.json"
    _cli_bytes(["gen", "--n", "4", "--d", "3", "--seed", "3000"], cloud, capsys)
    stdout = _cli_bytes(["roundtrip", str(cloud), "--algorithm", "wlnd"],
                        tmp_path / "rep.json", capsys).decode().split("\0")[0]
    assert [line for line in stdout.splitlines() if not line.startswith("residual:")] == [
        "method: nd-fulldim", "depth: 3", "candidates_tried: 3", "verified: yes"]


@pytest.mark.parametrize("algorithm, points", [
    ("wl2d", [[0, 0], [1, 0], [0, 1], [1, 3]]),
    ("oneshot", [[0, 0], [1, 0], [0, 1], [1, 3]]),
    ("wlnd", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 3, 1]]),
])
def test_roundtrip_past_the_float_range_is_an_error(tmp_path, capsys, algorithm, points):
    # exact coordinates of 10^200: their squared distances have no float
    big = [[c * 10 ** 200 if c == 1 else c for c in p] for p in points]
    path = _write(tmp_path, "big.json", {"points": big})
    assert main(["roundtrip", path, "--algorithm", algorithm]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float range" in err
