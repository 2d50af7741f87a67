import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logtoric
from logtoric.cli import main
from logtoric.fans import Fan, fan_to_json, standard_fan


def write_fan(tmp_path, fan, name="fan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(fan_to_json(fan)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fan_check_p1(tmp_path, capsys):
    path = write_fan(tmp_path, standard_fan("P^n", 1))
    code, out = run(capsys, "fan-check", path)
    assert code == 0
    report = json.loads(out)
    assert report["smooth"] is True
    assert report["complete"] is True


def test_fan_check_reports_nonsmooth(tmp_path, capsys):
    from logtoric.fans import Fan

    path = write_fan(tmp_path, Fan.make(2, [(1, 0), (1, 2)], [(0, 1)]))
    code, out = run(capsys, "fan-check", path)
    assert code == 0  # check only reports
    assert json.loads(out)["smooth"] is False


def test_fan_check_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 2, "rays": [[2, 0]], "maximal_cones": [[0]]}')
    code = main(["fan-check", str(path)])
    assert code == 2
    path2 = tmp_path / "broken.json"
    path2.write_text("{not json")
    assert main(["fan-check", str(path2)]) == 2
    path3 = tmp_path / "negative.json"
    path3.write_text('{"rank": -1, "rays": [], "maximal_cones": [[]]}')
    capsys.readouterr()
    assert main(["fan-check", str(path3)]) == 2
    assert "rank must be >= 0" in capsys.readouterr().err


def test_resolve_cli(tmp_path, capsys):
    from logtoric.fans import Fan

    path = write_fan(tmp_path, Fan.make(2, [(1, 0), (1, 2)], [(0, 1)]))
    code, out = run(capsys, "resolve", path)
    assert code == 0
    data = json.loads(out)
    assert data["smooth"] is True
    assert [1, 1] in data["fan"]["rays"]
    assert len(data["steps"]) == 1
    # round-trip: the emitted fan re-parses and passes fan-check
    out_path = tmp_path / "resolved.json"
    out_path.write_text(json.dumps(data["fan"]))
    assert main(["fan-check", str(out_path)]) == 0


@pytest.mark.parametrize(
    "text",
    [
        '{"rank": 2, "rays": [[1, 0.5], [0, 1]], "maximal_cones": [[0, 1]]}',
        '{"rank": 2, "rays": [[1, 0], [true, 2]], "maximal_cones": [[0, 1]]}',
        '{"rank": "2", "rays": [[1, 0], [1, 2]], "maximal_cones": [[0, 1]]}',
        '{"rank": 2, "rays": [[1, 0], [1, 2]], "maximal_cones": [[0, 1.0]]}',
    ],
    ids=["float-ray-entry", "bool-ray-entry", "string-rank", "float-cone-index"],
)
def test_resolve_cli_rejects_a_value_that_is_no_integer(tmp_path, capsys, text):
    path = tmp_path / "fan.json"
    path.write_text(text)
    code = main(["resolve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "malformed fan JSON" in captured.err


def test_refine_cli(tmp_path, capsys):
    from logtoric.fans import Fan, star_subdivide

    a2 = standard_fan("A^n", 2)
    sigma, _ = star_subdivide(a2, (0, 1))
    delta = Fan.make(2, [(1, 0), (1, 2), (0, 1)], [(0, 1), (1, 2)])
    ps = write_fan(tmp_path, sigma, "sigma.json")
    pd = write_fan(tmp_path, delta, "delta.json")
    code, out = run(capsys, "refine", ps, pd, "--eta", "")
    assert code == 0
    data = json.loads(out)
    assert all(len(s["center"]) == 2 for s in data["steps"])


@pytest.mark.parametrize("eta", ["a,b", "0,7", "-1", "0,,1", "1.5"])
def test_refine_rejects_bad_eta(tmp_path, capsys, eta):
    p2 = write_fan(tmp_path, standard_fan("P^n", 2))
    code = main(["refine", p2, p2, f"--eta={eta}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: --eta:")


def test_refine_accepts_a_shared_eta(tmp_path, capsys):
    p2 = write_fan(tmp_path, standard_fan("P^n", 2))
    code, out = run(capsys, "refine", p2, p2, "--eta", "0,2")
    assert code == 0
    assert json.loads(out)["steps"] == []


def run_process(*argv):
    """``logtoric`` in a child process, as a user runs it: (exit code,
    stdout, stderr), so an uncaught exception shows as a traceback."""
    src = str(Path(logtoric.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "logtoric.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command", ["smlsmify", "refine"])
def test_an_index_set_that_spans_a_line_is_reported_without_a_traceback(tmp_path, command):
    # each index set names two opposite rays: it spans a line, so it is no
    # cone, and the domain's own error reports it
    if command == "smlsmify":
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({
            "rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]],
            "open_maximal_cones": [[0, 1]],
        }))
        argv, want = [str(path)], (2, f"input error: {path}: open cone (0, 1) is not a cone of the fan\n")
    else:
        square = Fan.make(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
        sq = write_fan(tmp_path, square)
        argv, want = [sq, sq, "--eta", "0,2"], (1, "error: FanError: eta must be a common cone of both fans\n")
    code, out, err = run_process(command, *argv)
    assert (code, err) == want
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["fan-check", "{fan}"], ["chow", "{fan}"],
     ["logchow", "--q", "1", "--r", "0", "--nmax", "1", "--depth", "0"]],
)
def test_unwritable_output_is_an_input_error(tmp_path, capsys, argv):
    fan = write_fan(tmp_path, standard_fan("P^n", 1))
    target = tmp_path / "missing" / "out.json"
    code = main([a.replace("{fan}", fan) for a in argv] + ["-o", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"input error: cannot write {target}:")
    assert not target.exists()


def test_smlsmify_cli(tmp_path, capsys):
    pair = {
        "rank": 2,
        "rays": [[1, 0], [0, 1]],
        "maximal_cones": [[0, 1]],
        "open_maximal_cones": [[0], [1]],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out = run(capsys, "smlsmify", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["smlsm"] is True
    assert len(data["steps"]) == 1


@pytest.mark.parametrize(
    "part",
    [
        {"boundary_rays": ["x"]},
        {"boundary_rays": 5},
        {"boundary_rays": [0.7]},
        {"boundary_rays": [True]},
        {"boundary_rays": [2]},
        {"open_maximal_cones": [[0.0]]},
        {"open_maximal_cones": [0]},
        {"open_maximal_cones": [[99]]},
        {"open_maximal_cones": [[-1]]},
    ],
)
def test_smlsmify_cli_rejects_malformed_pair(tmp_path, capsys, part):
    pair = {"rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]], **part}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code = main(["smlsmify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "malformed pair JSON" in captured.err


def test_realize_cli_deterministic(tmp_path, capsys):
    path = write_fan(tmp_path, standard_fan("P^n", 1))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["realize", path, "-o", str(out1)]) == 0
    assert main(["realize", path, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    atlas = json.loads(out1.read_text())["atlas"]
    assert len(atlas["charts"]) == 2
    assert atlas["gluing"][0]["invert_in_first"] == [1]


@pytest.mark.parametrize("base", ["Z", "k", "Z/2", "Z/12"])
def test_realize_cli_accepts_base(tmp_path, capsys, base):
    path = write_fan(tmp_path, standard_fan("P^n", 1))
    code, out = run(capsys, "realize", path, "--base", base)
    assert code == 0
    assert json.loads(out)["atlas"]["base"] == base


@pytest.mark.parametrize("base", ["Z/abc", "Z/0", "Z/1", "Z/-3", "Z/", "Q", "z", ""])
def test_realize_cli_rejects_base_before_reading_input(tmp_path, capsys, base):
    missing = str(tmp_path / "missing.json")
    code = main(["realize", missing, "--base", base])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: --base:")


def test_chow_cli(tmp_path, capsys):
    path = write_fan(tmp_path, standard_fan("P^n", 2))
    code, out = run(capsys, "chow", path, "--q", "1")
    assert code == 0
    data = json.loads(out)
    assert data["groups"] == [{"q": 1, "rank": 1, "torsion": []}]
    code, out = run(capsys, "chow", path)
    assert code == 0
    assert [g["rank"] for g in json.loads(out)["groups"]] == [1, 1, 1]


def test_chow_cli_rejects_incomplete(tmp_path, capsys):
    path = write_fan(tmp_path, standard_fan("A^n", 2))
    assert main(["chow", path]) == 1


def test_logchow_cli(tmp_path, capsys):
    code, out = run(capsys, "logchow", "--q", "0", "--r", "0", "--nmax", "1",
                    "--depth", "0")
    assert code == 0
    data = json.loads(out)
    assert data["homology"][0] == {"n": 0, "rank": 1, "torsion": []}
    assert data["homology"][1] == {"n": 1, "rank": 0, "torsion": []}


def test_logchow_search(tmp_path, capsys):
    code, out = run(
        capsys,
        "logchow", "--q", "1", "--r", "0", "--nmax", "2", "--depth", "0",
        "--search-depth", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["searches"]
    trace = data["searches"][0]
    assert trace["found"] is True
    assert trace["witness"]


def test_determinism_logchow(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["logchow", "--q", "1", "--r", "0", "--nmax", "1", "--depth", "1"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_logchow_dump_diagrams(capsys):
    code, out = run(
        capsys,
        "logchow", "--q", "1", "--r", "0", "--nmax", "1", "--depth", "0",
        "--dump-diagrams",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["diagrams"]) == 2
    assert data["diagrams"][1]["nodes"][0]["fan"]["rank"] == 1


def _logchow_golden_rows():
    from pathlib import Path

    path = Path(__file__).parent / "golden" / "logchow_sha256.json"
    return json.loads(path.read_text())["rows"]


@pytest.mark.parametrize(
    "row", _logchow_golden_rows(), ids=lambda row: " ".join(row["argv"][1:])
)
def test_logchow_bytes_golden(capsys, row):
    code, out = run(capsys, *row["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == row["sha256"]


@pytest.mark.parametrize(
    "flag", ["--q", "--r", "--nmax", "--depth", "--search-depth"]
)
def test_logchow_rejects_negative(capsys, flag):
    argv = {"--q": "1", "--r": "0", "--nmax": "1", "--depth": "0"}
    argv[flag] = "-1"
    code = main(["logchow", *(x for kv in argv.items() for x in kv)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:")
    assert flag in err


def test_logchow_rejects_search_without_degree(capsys):
    code = main(
        ["logchow", "--q", "1", "--r", "0", "--nmax", "0", "--depth", "0",
         "--search-depth", "1"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:")


@pytest.mark.parametrize("search_depth", ["0", "1"])
def test_logchow_rejects_search_that_explores_nothing(capsys, search_depth):
    # the search starts at depth + 1, so a search depth <= depth is empty
    code = main(
        ["logchow", "--q", "1", "--r", "1", "--nmax", "2", "--depth", "1",
         "--search-depth", search_depth]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "--search-depth" in captured.err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_logchow_rejects_bad_node_budget(capsys, monkeypatch, value):
    monkeypatch.setenv("LOGTORIC_NODE_BUDGET", value)
    code = main(["logchow", "--q", "0", "--r", "0", "--nmax", "1", "--depth", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:")
    assert "LOGTORIC_NODE_BUDGET" in err


def test_logchow_honours_node_budget(capsys, monkeypatch):
    monkeypatch.setenv("LOGTORIC_NODE_BUDGET", "1")
    code, out = run(capsys, "logchow", "--q", "1", "--r", "0", "--nmax", "2",
                    "--depth", "1")
    assert code == 0
    assert json.loads(out)["truncated"] is True


def test_sbl_error_is_a_domain_error(capsys, monkeypatch):
    import logtoric.cli as cli
    from logtoric.sbl import SblError

    def fail(*args, **kwargs):
        raise SblError("node fans must be smooth")

    monkeypatch.setattr(cli, "build_complex", fail)
    code = main(["logchow", "--q", "1", "--r", "0", "--nmax", "1", "--depth", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: SblError:")


@pytest.mark.parametrize(
    "sigma, delta, message",
    [
        (Fan.make(2, [(1, 0), (1, 2)], [(0, 1)]), None, "refine requires a smooth first fan"),
        (
            standard_fan("A^n", 2),
            Fan.make(2, [(1, 0), (1, 1)], [(0, 1)]),
            "refine requires equal supports",
        ),
    ],
)
def test_refine_reports_a_singular_first_fan_and_unequal_supports(tmp_path, sigma, delta, message):
    ps = write_fan(tmp_path, sigma, "sigma.json")
    pd = write_fan(tmp_path, delta or sigma, "delta.json")
    code, out, err = run_process("refine", ps, pd, "--eta", "")
    assert (code, out, err) == (1, "", f"error: FanError: {message}\n")


def _cli_golden():
    return json.loads((Path(__file__).parent / "golden" / "cli_sha256.json").read_text())


@pytest.fixture
def golden_inputs(tmp_path, monkeypatch):
    # the provenance records the input names as given, so run in the
    # directory of the inputs and pass their relative names
    for name, data in _cli_golden()["inputs"].items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("row", _cli_golden()["rows"], ids=lambda row: " ".join(row["argv"]))
def test_subcommand_bytes_golden(golden_inputs, capsys, row):
    code, out = run(capsys, *row["argv"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (row["exit"], row["sha256"])


def test_output_file_holds_exactly_the_stdout_bytes(golden_inputs, capsys):
    argv = ["refine", "p1xp1.json", "p2.json", "--eta", "0,1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "-o", "out.json") == (0, "")
    assert (golden_inputs / "out.json").read_bytes() == out.encode()
