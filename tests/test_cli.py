import hashlib
import importlib.util
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from collections.abc import Mapping
from pathlib import Path

import pytest

from reflectron import arith, cli, cubicforms, reflection
from reflectron.arith import is_fundamental_discriminant
from reflectron.cli import emit_report, main
from reflectron.cubicforms import count_N3, enumerate_cubic_fields
from reflectron.reflection import verify_on3

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "data" / "f5_synthetic.csv"


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# each bad invocation with a fragment of its message; the ids are argvN,
# in the order the cases were added
_BAD_INVOCATIONS = [
    ([], "required: command"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["cubic-tab", "--xmax", "0"], "xmax must be positive"),
    (["classgroup"], "one of the arguments --d --dmax is required"),
    (["classgroup", "--d", "45"], "45 is not a fundamental discriminant"),
    (["classgroup", "--d", "-23", "--dmax", "100"], "not allowed with argument --d"),
    (["predict", "--d", "-23"], "required: --ell"),
    (["predict", "--ell", "4", "--d", "-23"], "4 is not an odd prime"),
    (["predict", "--ell", "7", "--corollary5", "--d", "-3"], "unrecognized arguments"),
    (["predict", "--ell", "5", "--corollary5", "--d", "-47"], "unrecognized arguments"),
    (["corollary5", "--d", "-15"], "not coprime to 5"),
    (
        ["check-table", "--table", "x.csv", "--d", "-3"],
        "one of the arguments --ell --corollary5 is required",
    ),
    (
        ["check-table", "--table", "/no/such/file.csv", "--ell", "5", "--d", "-3"],
        "No such file or directory",
    ),
    (["classgroup", "--d", "-23", "--format", "xml"], "invalid choice: 'xml'"),
    (["predict", "--ell", "4", "--dmax", "2"], "4 is not an odd prime"),
    (["predict", "--ell", "9", "--dmax", "2"], "9 is not an odd prime"),
    (["predict", "--ell", "9999999967", "--d", "-4"], "more than 4300 digits"),
    (["predict", "--ell", "3001", "--d", "-4"], "more than 4300 digits"),
    (["cubic-tab"], "required: --xmax"),
    (["cubic-tab", "--xmax", "-5"], "xmax must be positive"),
    (["cubic-tab", "--xmax", "100", "--workers", "0"], "workers must be between 1 and 256"),
    (["verify-on"], "required: --dmax"),
    # verify-on has no --d, and an abbreviation of --dmax is refused
    (["verify-on", "--dmax", "100", "--d", "-23"], "unrecognized arguments: --d -23"),
    (["classgroup", "--dmax", "0"], "dmax must be positive"),
    (["check-table", "--ell", "5", "--d", "-3"], "required: --table"),
    (
        ["check-table", "--table", "t.csv", "--ell", "7", "--corollary5", "--d", "-3"],
        "argument --corollary5: not allowed with argument --ell",
    ),
    (
        ["check-table", "--table", str(FIXTURE), "--corollary5", "--d", "-3",
         "--assume-complete-below", "0"],
        "assume_complete_below must be positive",
    ),
    (["corollary5", "--ell", "7", "--d", "-3"], "unrecognized arguments: --ell 7"),
    (["classgroup", "--d", "-23", "--out", ""], "argument --out: empty path"),
    # an abbreviation is no option, and it is named before the full
    # option is missed
    (["verify-on", "--d", "50"], "unrecognized arguments: --d\n"),
    (["cubic-tab", "--x", "30", "--w", "1"], "unrecognized arguments: --x --w\n"),
    (["cubic-tab", "--xmax", "30", "--w", "1"], "unrecognized arguments: --w 1"),
    (["classgroup", "--dma", "50"], "unrecognized arguments: --dma\n"),
    # psi_12 passes Miller-Rabin to the bases 2 to 37, and is composite
    (
        ["predict", "--ell", "3317044064679887385961981", "--d", "-4"],
        "3317044064679887385961981 is not an odd prime",
    ),
    # --corollary5 is the ell = 5 mode, with no second spelling
    (
        ["check-table", "--table", "t.csv", "--ell", "5", "--corollary5", "--d", "-3"],
        "argument --corollary5: not allowed with argument --ell",
    ),
    # a walk costs O(|d|), so --d is bounded as every --dmax is
    (
        ["classgroup", "--d", "99999999999999999999999999999999999999997"],
        "argument --d: d must be between -4294967295 and 4294967295",
    ),
    (
        ["predict", "--ell", "3", "--d", "-99999999999999999999999999999999999999"],
        "argument --d: d must be between -4294967295 and 4294967295",
    ),
    (["corollary5", "--d", "4294967296"], "got 4294967296"),
    (["verify-on", "--dmax", "ten"], "argument --dmax: invalid int value: 'ten'"),
    (
        ["cubic-tab", "--xmax", "10", "--workers", "two"],
        "argument --workers: invalid int value: 'two'",
    ),
]


@pytest.mark.parametrize(
    "argv, fragment",
    _BAD_INVOCATIONS,
    ids=[f"argv{i}" for i in range(len(_BAD_INVOCATIONS))],
)
def test_bad_invocations_exit_1(capsys, argv, fragment):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("usage error:", "error:"))
    assert fragment in captured.err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["cubic-tab", "--xmax", "100", "--workers", "256"], {"workers": 256}),
        (["cubic-tab", "--xmax", "100"], {"workers": 1, "format": "csv"}),
        (
            ["check-table", "--table", "t.csv", "--corollary5", "--dmax", "100"],
            {"ell": None, "corollary5": True, "dmax": 100, "d": None},
        ),
        (
            ["check-table", "--table", "t.csv", "--ell", "5", "--d", "-3"],
            {"ell": 5, "corollary5": False, "format": "json"},
        ),
        (["classgroup", "--d", "-4294967291"], {"d": -4294967291}),
        (["classgroup", "--d", "4294967295"], {"d": 4294967295}),
        (["corollary5", "--d", "-3"], {"ell": 5, "corollary5": True}),
        (["predict", "--ell", "7", "--d", "-3"], {"corollary5": False, "out": None}),
    ],
)
def test_edge_values_are_accepted(argv, expected):
    # parsed only, so no pool starts and no table is read
    args = vars(cli._build_parser().parse_args(argv))
    assert {key: args[key] for key in expected} == expected


@pytest.mark.parametrize(
    "command", ["classgroup", "cubic-tab", "verify-on", "predict", "corollary5", "check-table"]
)
def test_help_exits_0(command):
    # the parser, with its converters, builds for every command
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-m", "reflectron.cli", command, "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(f"usage: reflectron {command}")


def test_classgroup_row(capsys):
    code, out = run_main(capsys, ["classgroup", "--d", "-23"])
    assert code == 0
    assert out == "D,h,divisors,narrow\n-23,3,3,false\n"


def test_classgroup_range(capsys):
    code, out = run_main(capsys, ["classgroup", "--dmax", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,h,divisors,narrow"
    assert lines[1] == "-3,1,1,false"
    # positive discriminants report the narrow group
    assert "8,1,1,true" in lines
    assert "5,1,1,true" in lines


def test_cubic_tab_output(capsys):
    code, out = run_main(capsys, ["cubic-tab", "--xmax", "100"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "disc,count"
    assert lines[1] == "-23,1"
    assert "49,1" in lines and "81,1" in lines


def test_cubic_tab_json_matches_the_tabulation_and_the_csv(capsys):
    # every discriminant read by index, in (|disc|, disc) order
    tab = enumerate_cubic_fields(2000)
    expected = [
        {"disc": disc, "count": count_N3(tab, disc)}
        for m in range(1, 2001)
        for disc in (-m, m)
        if count_N3(tab, disc)
    ]
    code, out = run_main(capsys, ["cubic-tab", "--xmax", "2000", "--format", "json"])
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"
    code, csv_out = run_main(capsys, ["cubic-tab", "--xmax", "2000"])
    assert code == 0
    lines = csv_out.splitlines()
    assert lines[0] == "disc,count"
    csv_rows = [dict(zip(("disc", "count"), map(int, line.split(",")))) for line in lines[1:]]
    assert csv_rows == json.loads(out)


def _traced_peak_of_main(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_cubic_tab_report_memory_is_bounded_by_its_bytes(monkeypatch, tmp_path):
    # the tabulation is built before tracing, so the traced peak is what
    # parsing the command, ordering the tabulation and writing its report
    # cost: a few bytes per report byte, not one dict and one line string
    # per row
    tab = enumerate_cubic_fields(30_000)
    monkeypatch.setattr(cubicforms, "enumerate_cubic_fields", lambda xmax, workers: tab)
    path = tmp_path / "report.csv"
    code, peak = _traced_peak_of_main(["cubic-tab", "--xmax", "30000", "--out", str(path)])
    text = path.read_text()
    assert code == 0
    assert text.count("\n") == 5_768 + 1
    assert len(text) == 48_652
    assert peak < 15 * len(text)


def test_verify_on_report_memory_is_bounded_by_its_bytes(monkeypatch, tmp_path):
    # both tabulations are built before tracing, so the traced peak is
    # the scope, the verdicts and the report: rows stream into the text
    # rather than being held as one dict per discriminant
    low = enumerate_cubic_fields(3 * 30_000)
    high = enumerate_cubic_fields(27 * 30_000, modulus=27)
    monkeypatch.setattr(
        cubicforms,
        "enumerate_cubic_fields",
        lambda xmax, workers, modulus=1: low if modulus == 1 else high,
    )
    path = tmp_path / "report.csv"
    code, peak = _traced_peak_of_main(["verify-on", "--dmax", "30000", "--out", str(path)])
    text = path.read_text()
    assert code == 0
    assert text.count("\n") == 18_243
    assert len(text) == 349_000
    assert peak < 10 * len(text)


def test_cubic_tab_past_the_sieve_ceiling_exits_1(capsys):
    # 2^32 is one past what the sieve table can index: refused, not built
    assert main(["cubic-tab", "--xmax", "4294967296", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_classgroup_past_the_sieve_ceiling_exits_1(capsys, monkeypatch):
    # the range sizes the sieve first, so 2^32 is refused before any of
    # its 8.6e9 integers is tested and before any table is built
    def refuse(typecode, values):
        raise AssertionError("a sieve table was allocated")

    monkeypatch.setattr(arith, "array", refuse)
    assert main(["classgroup", "--dmax", "4294967296"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sieve limit 4294967296 exceeds 4294967295\n"


def test_commands_import_no_pool_modules():
    # a fresh interpreter, so no other test has loaded the pool modules;
    # two workers are forked children, not a multiprocessing pool
    code = (
        "import contextlib, io, sys\n"
        "from reflectron.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['classgroup', '--dmax', '50']),\n"
        "             main(['verify-on', '--dmax', '50', '--workers', '1']),\n"
        "             main(['cubic-tab', '--xmax', '2000', '--workers', '2'])]\n"
        "print(codes, [m for m in sys.modules\n"
        "              if m.split('.')[0] in ('concurrent', 'multiprocessing')])\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[0, 0, 0] []\n"


def test_each_command_loads_only_the_layers_it_runs():
    # a fresh interpreter per command, so no other test or command has
    # loaded a layer
    def layers_after(argv):
        code = (
            "import contextlib, io, sys\n"
            "def layers():\n"
            "    return sorted(m for m in sys.modules if m.startswith('reflectron.'))\n"
            "import reflectron.cli\n"
            "print(layers(), *(m in sys.modules for m in ('json', 'dataclasses', 'inspect')))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = reflectron.cli.main({argv!r})\n"
            "modules = ('csv', 'json', 'dataclasses', 'inspect')\n"
            "print(code, layers(), *(m in sys.modules for m in modules))\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    def expected(names, csv, json):
        # no layer loads dataclasses or inspect: its records are named
        # tuples
        loaded = sorted(f"reflectron.{name}" for name in names)
        return f"{on_import}\n0 {loaded} {csv} {json} False False\n"

    # importing the command line loads no json, and no dataclasses or
    # inspect: its parser is the one declaration of its inputs
    on_import = "['reflectron.arith', 'reflectron.cli'] False False False"
    # the CSV reports never load json
    assert layers_after(["classgroup", "--dmax", "50"]) == expected(
        ["arith", "cli", "quadforms"], False, False
    )
    assert layers_after(["cubic-tab", "--xmax", "500"]) == expected(
        ["arith", "cli", "cubicforms"], False, False
    )
    # the identity layer imports the cubic enumerator only inside
    # verify_on3, and the class groups only inside count_Dl
    assert layers_after(["verify-on", "--dmax", "50"]) == expected(
        ["arith", "cli", "cubicforms", "reflection"], False, False
    )
    predicting = ["arith", "cli", "quadforms", "reflection"]
    for argv in (["predict", "--ell", "5", "--d", "-47"], ["corollary5", "--dmax", "50"]):
        assert layers_after(argv) == expected(predicting, False, True), argv
    argv = ["check-table", "--table", str(FIXTURE), "--corollary5", "--dmax", "100"]
    assert layers_after(argv) == expected([*predicting, "fieldtables"], True, True)


@pytest.mark.parametrize(
    "workload, argv",
    [
        ("classgroup", ["classgroup", "--dmax", "1600"]),
        ("verify", ["verify-on", "--dmax", "3000", "--workers", "1"]),
        ("tabulate", ["cubic-tab", "--xmax", "160000", "--workers", "2"]),
        ("reconcile", ["check-table", "--table", "{table}", "--corollary5", "--dmax", "300"]),
    ],
)
def test_report_matches_the_benchmark_reference(capsys, monkeypatch, tmp_path, workload, argv):
    # the sha256 the benchmark gates every report on, so a changed byte
    # fails here too
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    if workload == "reconcile":
        # one table from the benchmark's own seeded generator, loaded
        # without writing bytecode next to it; the report does not
        # depend on the seed
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "bench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        # its dataclass looks its module up by name
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        lhs = {int(d): n for d, n in reference["corollary5_lhs"].items()}
        table = tmp_path / "reconcile_table.csv"
        table.write_text(workloads.reconcile_table(300, 800, random.Random(0), lhs))
        argv = [str(table) if arg == "{table}" else arg for arg in argv]
    code, out = run_main(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == reference["digests"]["full"][workload]


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "--dmax", "300"],
        ["verify-on", "--dmax", "100", "--workers", "1"],
        ["corollary5", "--dmax", "300"],
        ["predict", "--ell", "7", "--dmax", "300"],
        ["check-table", "--table", str(FIXTURE), "--corollary5", "--dmax", "300"],
    ],
)
def test_scoped_commands_test_discriminants_off_the_sieve(capsys, monkeypatch, argv):
    # from an empty sieve, as in a fresh process: every fundamental
    # discriminant test walks the table the command sizes once, so the
    # squarefree path never factorizes
    monkeypatch.setattr(arith, "_spf", array("I"))
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or real(n))
    # each build of the table starts from one array of a range
    builds = []
    real_array = arith.array

    def counted_array(typecode, values):
        if type(values) is range:
            builds.append(len(values))
        return real_array(typecode, values)

    monkeypatch.setattr(arith, "array", counted_array)
    code, out = run_main(capsys, argv)
    # the fixture lists the fields of |d| <= 100 only, so check-table
    # fails some of the rest
    assert code == (2 if argv[0] == "check-table" else 0) and out
    # the one factorization a run may make is of ell - 1, for the
    # primitive root, and none if an earlier run cached it
    assert calls in ([], [6] if argv[0] == "predict" else [])
    assert len(builds) == 1


def test_predict_factors_ell_minus_1_once(capsys, monkeypatch):
    # g is the same for every D of a run, so ell - 1 = 12 is factored at
    # most once (not at all if an earlier call found g), not once per D
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or real(n))
    code, out = run_main(capsys, ["predict", "--ell", "13", "--dmax", "2000"])
    assert code == 0 and len(json.loads(out)) == 1_217
    assert calls in ([], [12])


def test_verify_on_rows(capsys):
    code, out = run_main(capsys, ["verify-on", "--dmax", "24"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,D,N3_Dstar,N3_27D,rhs,verdict"
    assert "3,-23,0,1,1,pass" in lines
    assert "3,5,0,1,1,pass" in lines
    assert all(line.endswith("pass") for line in lines[1:])
    assert not any(",-3," in line for line in lines)


def _verify_on3_failing_at(monkeypatch, position, outcome):
    # verify_on3 as the command calls it, except at the given position of
    # the scope, where `outcome(report)` takes its place
    args = cli._build_parser().parse_args(["verify-on", "--dmax", "200"])
    scope = list(cli._scope(args, -3))
    calls = []

    def fake(d, low, high):
        report = verify_on3(d, low, high)
        calls.append(d)
        return outcome(report) if d == scope[position] else report

    monkeypatch.setattr(reflection, "verify_on3", fake)
    return scope, calls


def test_verify_on_exits_2_on_a_failing_verdict(capsys, monkeypatch):
    # the last row fails: the exit code is read only after the report
    # has consumed every row
    scope, _ = _verify_on3_failing_at(
        monkeypatch, -1, lambda report: report._replace(holds=False)
    )
    code, out = run_main(capsys, ["verify-on", "--dmax", "200", "--workers", "1"])
    assert code == 2
    rows = out.splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == scope
    assert rows[-1].endswith(",fail")
    assert all(row.endswith(",pass") for row in rows[:-1])


def test_a_run_that_raises_part_way_writes_nothing(capsys, monkeypatch, tmp_path):
    def refuse(report):
        raise ValueError("refused")

    scope, calls = _verify_on3_failing_at(monkeypatch, 9, refuse)
    path = tmp_path / "report.csv"
    path.write_bytes(b"earlier report\n")
    argv = ["verify-on", "--dmax", "200", "--workers", "1"]
    code, out = run_main(capsys, [*argv, "--out", str(path)])
    assert (code, out) == (1, "")
    assert path.read_bytes() == b"earlier report\n"
    assert calls == scope[:10]
    code, out = run_main(capsys, argv)
    assert (code, out) == (1, "")


@pytest.mark.parametrize("earlier", [b"earlier report\n", None])
def test_an_out_file_write_that_fails_part_way_leaves_the_old_file(
    capsys, monkeypatch, tmp_path, earlier
):
    # the report goes to a temporary file beside --out that is renamed
    # over it, so a write cut short (a full disk, say) leaves the old
    # report, or none, and no temporary file
    real_open = open

    class HalfWriting:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(
        cli, "open", lambda *args: HalfWriting(real_open(*args)), raising=False
    )
    path = tmp_path / "report.csv"
    if earlier is not None:
        path.write_bytes(earlier)
    code, out = run_main(capsys, ["classgroup", "--dmax", "50", "--out", str(path)])
    assert (code, out) == (1, "")
    if earlier is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["report.csv"])


def test_out_in_a_missing_directory_names_the_path_given(capsys, tmp_path):
    # the error names --out, not the temporary file made beside it
    path = tmp_path / "missing" / "report.csv"
    assert main(["classgroup", "--dmax", "5", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith(repr(str(path)))
    assert not (tmp_path / "missing").exists()


def test_out_through_a_symlink_replaces_its_target(capsys, tmp_path):
    _, out = run_main(capsys, ["classgroup", "--dmax", "50"])
    target = tmp_path / "report.csv"
    target.write_text("earlier report\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["classgroup", "--dmax", "50", "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "report.csv"]


def test_out_to_a_pipe_writes_into_it(capsys, tmp_path):
    # a FIFO is not a regular file, so the report is written into it, not
    # renamed over it from a temporary file
    _, out = run_main(capsys, ["classgroup", "--dmax", "50"])
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["classgroup", "--dmax", "50", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [out.encode()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


@pytest.mark.parametrize("mode", [0o600, 0o640, None])
def test_out_keeps_the_permission_bits_of_the_file_it_replaces(capsys, tmp_path, mode):
    # a report is never more readable than the file it replaces, and a
    # new one gets the umask default
    _, out = run_main(capsys, ["classgroup", "--dmax", "50"])
    path = tmp_path / "report.csv"
    if mode is not None:
        path.write_text("earlier report\n")
        path.chmod(mode)
    umask = os.umask(0o022)
    try:
        assert main(["classgroup", "--dmax", "50", "--out", str(path)]) == 0
    finally:
        os.umask(umask)
    assert path.read_text() == out
    assert stat.S_IMODE(path.stat().st_mode) == (0o644 if mode is None else mode)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_on_matches_one_full_tabulation(capsys, workers):
    # verify-on reads -27 D from a modulus-27 tabulation and the rest from
    # a dense one to 3 dmax; one full tabulation to 27 dmax is the reference
    full = enumerate_cubic_fields(27 * 400)
    expected = ["ell,D,N3_Dstar,N3_27D,rhs,verdict"]
    scope = [d for d in range(-400, 401) if is_fundamental_discriminant(d) and d not in (1, -3)]
    for d in sorted(scope, key=lambda d: (abs(d), d)):
        report = verify_on3(d, full)
        first, second = report.lhs_terms
        verdict = "pass" if report.holds else "fail"
        expected.append(f"3,{d},{first},{second},{report.rhs},{verdict}")
    code, out = run_main(capsys, ["verify-on", "--dmax", "400", "--workers", workers])
    assert code == 0
    assert out.splitlines() == expected
    assert any(line.split(",")[3] != "0" for line in expected[1:])


def test_predict_json(capsys):
    code, out = run_main(capsys, ["predict", "--ell", "3", "--d", "-23"])
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {
            "ell": 3,
            "D": -23,
            "g": 2,
            "dl_count": 1,
            "lhs": 1,
            "targets": [{"r2": 0, "disc": 69}, {"r2": 0, "disc": 621}],
            "star_required": False,
        }
    ]


def test_predict_csv(capsys):
    code, out = run_main(
        capsys, ["predict", "--ell", "3", "--d", "-23", "--format", "csv"]
    )
    assert code == 0
    assert out == (
        "ell,D,g,dl_count,lhs,target1,target2,star_required\n"
        "3,-23,2,1,1,69,621,false\n"
    )


def test_corollary5_json(capsys):
    code, out = run_main(capsys, ["corollary5", "--d", "-47"])
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {
            "ell": 5,
            "D": -47,
            "lhs": 1,
            "targets": [
                {"r2": 0, "disc": 276125},
                {"r2": 0, "disc": 6903125},
                {"r2": 0, "disc": 172578125},
            ],
        }
    ]


def test_corollary5_csv(capsys):
    code, out = run_main(capsys, ["corollary5", "--d", "29", "--format", "csv"])
    assert code == 0
    assert out == (
        "ell,D,lhs,target1,target2,target3\n"
        "5,29,2,105125,2628125,65703125\n"
    )


def test_check_table_fixture_passes(capsys):
    code, out = run_main(
        capsys,
        ["check-table", "--table", str(FIXTURE), "--corollary5", "--dmax", "100"],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 50
    assert all(row["verdict"] == "pass" for row in rows)
    by_d = {row["D"]: row for row in rows}
    assert (by_d[-47]["expected"], by_d[-47]["observed"]) == (1, 1)
    assert (by_d[-11]["expected"], by_d[-11]["observed"]) == (0, 0)


def test_check_table_missing_field_exits_2(capsys, tmp_path):
    doctored = tmp_path / "doctored.csv"
    lines = FIXTURE.read_text().splitlines()
    doctored.write_text("\n".join(l for l in lines if "f5-d-47-" not in l) + "\n")
    code, out = run_main(
        capsys,
        ["check-table", "--table", str(doctored), "--corollary5", "--dmax", "100"],
    )
    assert code == 2
    rows = json.loads(out)
    bad = [row for row in rows if row["verdict"] == "fail"]
    assert [row["D"] for row in bad] == [-47]
    assert bad[0]["missing"] == [276125, 6903125, 172578125]


def test_check_table_csv_columns(capsys):
    code, out = run_main(
        capsys,
        ["check-table", "--table", str(FIXTURE), "--corollary5", "--d", "-47",
         "--format", "csv"],
    )
    assert code == 0
    assert out == (
        "mode,ell,D,expected,observed,verdict\n"
        "exact,5,-47,1,1,pass\n"
    )


def test_check_table_huge_disc_is_not_factored(capsys, tmp_path):
    # a semiprime of two Mersenne primes, far beyond trial division; the
    # row only has to be compared, so it must not stall the check
    table = tmp_path / "huge.csv"
    disc = (2**61 - 1) * (2**89 - 1)
    table.write_text(f"label,degree,r2,disc,galois\nbig,5,0,{disc},F5\n")
    start = time.perf_counter()
    code, out = run_main(
        capsys,
        ["check-table", "--table", str(table), "--corollary5", "--d", "-47",
         "--format", "csv"],
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == "mode,ell,D,expected,observed,verdict\nexact,5,-47,1,0,fail\n"


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_workers_env_is_ignored(capsys, monkeypatch, value):
    # --workers is the only control of the worker count
    _, plain = run_main(capsys, ["cubic-tab", "--xmax", "100"])
    monkeypatch.setenv("REFLECTRON_WORKERS", value)
    code, out = run_main(capsys, ["cubic-tab", "--xmax", "100"])
    assert code == 0
    assert out == plain


def test_workers_do_not_change_output(capsys, tmp_path):
    paths = [tmp_path / name for name in ("w1.csv", "w3.csv", "default.csv")]
    assert main(["cubic-tab", "--xmax", "2000", "--workers", "1", "--out", str(paths[0])]) == 0
    assert main(["cubic-tab", "--xmax", "2000", "--workers", "3", "--out", str(paths[1])]) == 0
    assert main(["cubic-tab", "--xmax", "2000", "--out", str(paths[2])]) == 0
    capsys.readouterr()
    first = paths[0].read_bytes()
    assert first == paths[1].read_bytes() == paths[2].read_bytes()


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out = run_main(capsys, ["classgroup", "--dmax", "50"])
    assert code == 0
    path = tmp_path / "report.csv"
    assert main(["classgroup", "--dmax", "50", "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


def test_csv_cells_keep_their_bytes():
    # ints take a fast path; bools (an int subclass) still print as words
    row = {
        "n": -27,
        "big": 10**20,
        "zero": 0,
        "t": True,
        "f": False,
        "comma": "a,b",
        "quote": 'say "hi"',
        "lf": "x\ny",
        "cr": "x\ry",
        "plain": "pass",
    }
    assert emit_report([row], "csv", list(row)) == (
        "n,big,zero,t,f,comma,quote,lf,cr,plain\n"
        '-27,100000000000000000000,0,true,false,"a,b","say ""hi""","x\ny","x\ry",pass\n'
    )


def test_emit_report():
    assert emit_report([], "json") == "[]\n"
    assert emit_report([{"a": 1}], "json") == '[\n  {\n    "a": 1\n  }\n]\n'
    assert emit_report([{"a": True, "b": 0}], "csv", ["a", "b"]) == "a,b\ntrue,0\n"
    assert emit_report([{"a": 'x,"y"'}], "csv", ["a"]) == 'a\n"x,""y"""\n'
    assert emit_report([{"a": 1, "b": 2}], "csv", columns=["b", "a"]) == "b,a\n2,1\n"
    # a line break inside a cell is quoted, so the row stays one record
    assert emit_report([{"a": "x\ny", "b": 1}], "csv", ["a", "b"]) == 'a,b\n"x\ny",1\n'
    with pytest.raises(ValueError):
        emit_report([], "yaml")
    # CSV never guesses its columns from the rows
    with pytest.raises(ValueError):
        emit_report([{"a": 1}], "csv")


@pytest.mark.parametrize(
    "rows, format, columns",
    [
        pytest.param([{"a": 1, "b": -2}, {"a": 3, "b": 4}], "csv", ["a", "b"], id="csv"),
        pytest.param([{"a": 1, "b": -2}, {"a": 3, "b": 4}], "csv", ["b", "a"], id="columns"),
        pytest.param(
            [{"a": True, "b": 'x,"y"'}, {"a": False, "b": "p\nq"}],
            "csv",
            ["a", "b"],
            id="quoted",
        ),
        pytest.param([{"a": 1, "t": [{"r2": 0}]}, {"a": 2, "t": []}], "json", None, id="json"),
        pytest.param([], "csv", ["a"], id="csv-empty"),
        pytest.param([], "csv", ["disc", "count"], id="columns-empty"),
        pytest.param([], "json", None, id="json-empty"),
    ],
)
def test_emit_report_streams_a_generator(rows, format, columns):
    streamed = emit_report((row for row in rows), format, columns)
    assert streamed == emit_report(rows, format, columns)


def test_emit_report_joins_chunks_without_a_seam():
    # one line per row across every chunk boundary, none lost or doubled
    n = 2 * cli._REPORT_CHUNK + 1
    expected = "n\n" + "".join(f"{i}\n" for i in range(n))
    assert emit_report(({"n": i} for i in range(n)), "csv", ["n"]) == expected


def test_emit_report_peaks_near_two_copies_of_its_text():
    # the chunks and their join are alive together, and nothing more:
    # no third copy of the text to end it in a newline
    columns = ["ell", "D", "N3_Dstar", "N3_27D", "rhs", "verdict"]
    rows = (
        {"ell": 3, "D": -d, "N3_Dstar": d % 7, "N3_27D": d % 5, "rhs": d % 3, "verdict": "pass"}
        for d in range(50_000)
    )
    tracemalloc.start()
    try:
        text = emit_report(rows, "csv", columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 50_001 and text.endswith("3,-49999,5,4,1,pass\n")
    assert peak < 2.5 * len(text)


def _comparison_rows(n):
    # rows shaped as check-table writes them, with nested lists, None and
    # strings that JSON must escape
    for i in range(n):
        yield {
            "mode": "exact",
            "ell": 5,
            "D": -4 * i - 3,
            "expected": i % 4,
            "observed": i % 3,
            "missing": [-(i * 25) - 1, i * 125] if i % 2 else [],
            "surplus": [f"5.1.{i}.1", 'q"\n\u00e9'] if i % 5 == 0 else [],
            "verdict": "pass" if i % 7 else "fail",
            "note": None if i % 3 else "",
        }


@pytest.mark.parametrize("n", [0, 1, 3, 2 * cli._REPORT_CHUNK + 1])
def test_emit_report_json_is_one_dump_of_the_rows(n):
    # rows dumped one at a time and joined in chunks give the bytes of
    # one dump of the whole list
    expected = json.dumps(list(_comparison_rows(n)), indent=2) + "\n"
    assert emit_report(_comparison_rows(n), "json") == expected


def test_emit_report_json_peaks_near_two_copies_of_its_text():
    # the pieces and their join are alive together, with one chunk of
    # rows, and not the row list and two copies of the text as one dump
    # of the list held
    tracemalloc.start()
    try:
        text = emit_report(_comparison_rows(20_000), "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.startswith("[\n  {\n") and text.endswith('"note": null\n  }\n]\n')
    assert text.count('"mode"') == 20_000
    assert peak < 2.5 * len(text)


class _CountedRow(Mapping):
    """A one-column row that counts how many of its kind are alive."""

    live = 0
    peak = 0

    def __init__(self, n):
        self._n = n
        _CountedRow.live += 1
        _CountedRow.peak = max(_CountedRow.peak, _CountedRow.live)

    def __del__(self):
        _CountedRow.live -= 1

    def __getitem__(self, key):
        if key != "n":
            raise KeyError(key)
        return self._n

    def __iter__(self):
        return iter(("n",))

    def __len__(self):
        return 1


def test_emit_report_holds_at_most_one_chunk_of_rows(monkeypatch):
    monkeypatch.setattr(_CountedRow, "peak", 0)
    text = emit_report((_CountedRow(i) for i in range(20_000)), "csv", ["n"])
    assert text.count("\n") == 20_001
    assert 0 < _CountedRow.peak <= cli._REPORT_CHUNK
    assert _CountedRow.live == 0


def test_huge_worker_count_exits_1_before_any_work(capsys, monkeypatch):
    # validation only: the enumeration, which would start the workers,
    # must never be reached
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("reflectron.cubicforms.enumerate_cubic_fields", refuse)
    for argv in (
        ["cubic-tab", "--xmax", "100", "--workers", "257"],
        ["verify-on", "--dmax", "10", "--workers", str(10**12)],
        ["cubic-tab", "--xmax", "100", "--workers", str(10**9)],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "workers must be between 1 and 256" in captured.err
