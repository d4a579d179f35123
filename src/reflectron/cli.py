"""Batch driver: tabulate, verify, predict, and reconcile from a shell.

Exit codes are CI-friendly.  0 means every check passed, 1 means the
invocation or its IO was bad, and 2 means a verified identity failed,
which for a proved identity doubles as an implementation-bug alarm.
Reports are deterministic: fixed row order, and worker count never
changes the bytes emitted.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import chain, islice
from operator import itemgetter

# each runner imports the layers it uses when it starts, so a command
# compiles and loads only those
from .arith import fundamental_discriminants, smallest_prime_factors

# far above any core count the enumeration can use; a larger value is a
# typo, and each worker is a process with its own sieve
_MAX_WORKERS = 256

# rows rendered and joined per piece of a report; a report holds one
# chunk of rows and their text at a time, not one object per row
_REPORT_CHUNK = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the parser and every subparser refuse an abbreviated option, which
    # argparse would otherwise read as the option it prefixes
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad usage; 2 is reserved for
    # identity violations here, so surface usage problems as exceptions
    def error(self, message):
        raise _UsageError(message)


class _CommandParser(_Parser):
    # a command's parser names every option it does not know before any
    # other fault; argparse alone reports a missing required option
    # first, which hides a typo such as --d for --dmax.  argparse marks
    # an option it does not know as (None, option, None).  The top
    # parser is not one of these: it also meets the command's options
    def parse_known_args(self, args=None, namespace=None):
        self.unknown = []
        return super().parse_known_args(args, namespace)

    def _parse_optional(self, arg_string):
        parsed = super()._parse_optional(arg_string)
        if parsed == (None, arg_string, None):
            self.unknown.append(arg_string)
        return parsed

    def error(self, message):
        if self.unknown:
            message = "unrecognized arguments: " + " ".join(self.unknown)
        super().error(message)


def _bounded(name: str, high: int | None = None):
    # an argparse type for an int option from 1 to high, or with no upper
    # bound when high is None, that refuses other values by the option's name
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1 or (high is not None and value > high):
            bound = "positive" if high is None else f"between 1 and {high}, got {value}"
            raise argparse.ArgumentTypeError(f"{name} must be {bound}")
        return value

    return convert


def _path(text: str) -> str:
    # an empty --out is refused, not read as no --out
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _build_parser() -> _Parser:
    # the one declaration of each command's inputs; each subparser's
    # defaults carry its runner, its CSV columns and its default format
    parser = _Parser(prog="reflectron", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def common(p, *, scope=False, workers=False):
        if scope:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--d", type=int, help="single fundamental discriminant")
            grp.add_argument(
                "--dmax", type=_bounded("dmax"), help="all fundamental 1 < |D| <= dmax"
            )
        if workers:
            p.add_argument("--workers", type=_bounded("workers", _MAX_WORKERS), default=1)
        p.add_argument("--out", type=_path, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"))

    p = sub.add_parser("classgroup", help="class group structures")
    p.set_defaults(runner=_run_classgroup, columns=["D", "h", "divisors", "narrow"], format="csv")
    common(p, scope=True)

    p = sub.add_parser("cubic-tab", help="tabulate cubic fields by discriminant")
    p.set_defaults(runner=_run_cubic_tab, columns=["disc", "count"], format="csv")
    p.add_argument("--xmax", type=_bounded("xmax"), required=True, help="tabulate |disc| <= xmax")
    common(p, workers=True)

    p = sub.add_parser("verify-on", help="verify the cubic identity over a range")
    p.set_defaults(
        runner=_run_verify_on,
        columns=["ell", "D", "N3_Dstar", "N3_27D", "rhs", "verdict"],
        format="csv",
    )
    p.add_argument("--dmax", type=_bounded("dmax"), required=True)
    common(p, workers=True)

    p = sub.add_parser("predict", help="evaluate the identity's left side and targets")
    p.set_defaults(
        runner=_run_predict,
        columns=["ell", "D", "g", "dl_count", "lhs", "target1", "target2", "star_required"],
        format="json",
        corollary5=False,
    )
    p.add_argument("--ell", type=int, required=True)
    common(p, scope=True)

    p = sub.add_parser("corollary5", help="the ell = 5 aggregate predictions")
    p.set_defaults(
        runner=_run_predict,
        columns=["ell", "D", "lhs", "target1", "target2", "target3"],
        format="json",
        ell=5,
        corollary5=True,
    )
    common(p, scope=True)

    p = sub.add_parser("check-table", help="reconcile predictions with a field table")
    p.set_defaults(
        runner=_run_check_table,
        columns=["mode", "ell", "D", "expected", "observed", "verdict"],
        format="json",
    )
    p.add_argument("--table", required=True, help="CSV field table path")
    p.add_argument("--ell", type=int)
    p.add_argument("--corollary5", action="store_true")
    p.add_argument("--assume-complete-below", type=_bounded("assume_complete_below"))
    common(p, scope=True)

    return parser


def emit_report(results, format: str, columns: list[str] | None = None) -> str:
    """Serialize result rows with a stable field order.

    JSON keeps rows as given, and its text is json.dumps(rows, indent=2)
    and a newline; CSV needs flat rows and emits the listed columns,
    which it requires.  Either reads `results` once, as any iterable, and
    holds one chunk of its rows and their lines at a time besides the
    pieces of the text and their join.
    """
    if format == "json":
        pieces = list(_pieces(results, _json_row, ",\n"))
        if not pieces:
            return "[]\n"
        # the brackets go on the first and last piece, not on a copy of
        # the whole text
        pieces[0] = "[\n" + pieces[0]
        pieces[-1] += "\n]\n"
        return ",\n".join(pieces)
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")
    if not columns:
        raise ValueError("a CSV report needs its columns")
    cells = itemgetter(*columns)
    # itemgetter of one key returns the cell itself, not a tuple of one
    if len(columns) == 1:
        line = lambda row: _csv_cell(cells(row))
    else:
        line = lambda row: ",".join(map(_csv_cell, cells(row)))
    parts = [",".join(columns)]
    parts.extend(_pieces(results, line, "\n"))
    # the empty last part ends the text in a newline, with no second copy
    parts.append("")
    return "\n".join(parts)


def _pieces(results, line, sep: str):
    # the rows' lines joined by sep, one chunk of rows at a time
    rows = iter(results)
    for head in rows:
        yield sep.join([line(row) for row in chain([head], islice(rows, _REPORT_CHUNK - 1))])


def _json_row(row) -> str:
    # a row dumped alone sits one level shallower than in the list
    return "  " + _json_encoder().encode(row).replace("\n", "\n  ")


@cache
def _json_encoder():
    # one for every row, made at the first, so CSV reports never load json
    import json

    return json.JSONEncoder(indent=2)


def _csv_cell(value) -> str:
    # most cells are ints, which need no quoting
    if type(value) is int:
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _scope(args: argparse.Namespace, *exclude: int):
    # in (|d|, d) order, with no list of the range held; verify-on has
    # --dmax and no --d
    if args.dmax is None:
        return [args.d]
    return (d for d in fundamental_discriminants(args.dmax) if d not in exclude)


def _run_classgroup(args: argparse.Namespace):
    from .quadforms import class_groups

    for grp in class_groups(_scope(args)):
        divisors = "x".join(str(n) for n in grp.elementary_divisors) or "1"
        yield {"D": grp.discriminant, "h": grp.order, "divisors": divisors, "narrow": grp.narrow}


def _run_cubic_tab(args: argparse.Namespace):
    from .cubicforms import enumerate_cubic_fields

    tab = enumerate_cubic_fields(args.xmax, workers=args.workers)
    for disc, count in tab.items():
        yield {"disc": disc, "count": count}


def _run_verify_on(args: argparse.Namespace):
    from .cubicforms import enumerate_cubic_fields
    from .reflection import verify_on3

    # |D*| <= 3 |D| and |D| <= dmax, so only -27 D lies past 3 dmax, and
    # the fields with 27 | disc are the ones the modulus-27 walk finds
    low = enumerate_cubic_fields(3 * args.dmax, workers=args.workers)
    high = enumerate_cubic_fields(27 * args.dmax, workers=args.workers, modulus=27)
    for d in _scope(args, -3):
        report = verify_on3(d, low, high)
        yield {
            "ell": 3,
            "D": d,
            "N3_Dstar": report.lhs_terms[0],
            "N3_27D": report.lhs_terms[1],
            "rhs": report.rhs,
            "verdict": "pass" if report.holds else "fail",
        }


def _predictions(args: argparse.Namespace):
    # one class-group walk for the whole scope, its ranks streamed in
    # scope order
    from .reflection import corollary5_predictions, predictions

    if not args.corollary5:
        return predictions(args.ell, _scope(args, args.ell, -args.ell))
    if args.d is not None:
        return corollary5_predictions([args.d])
    # each d also reads the class group of 5 d: a sieve sized to 5 dmax
    # before the scope is made is built once, and every test walks it
    smallest_prime_factors(5 * args.dmax)
    return corollary5_predictions(d for d in _scope(args) if d % 5)


def _run_predict(args: argparse.Namespace):
    from .reflection import Corollary5Report

    for pred in _predictions(args):
        targets = [{"r2": fd.r2, "disc": fd.signed_value()} for fd in pred.targets]
        if isinstance(pred, Corollary5Report):
            row = {"ell": 5, "D": pred.d, "lhs": pred.lhs_value, "targets": targets}
        else:
            row = {
                "ell": pred.ell,
                "D": pred.D,
                "g": pred.g,
                "dl_count": pred.dl_count,
                "lhs": pred.lhs_value,
                "targets": targets,
                "star_required": pred.star_required,
            }
        if args.format == "csv":
            for i, fd in enumerate(pred.targets, start=1):
                row[f"target{i}"] = fd.signed_value()
        yield row


def _run_check_table(args: argparse.Namespace):
    from .fieldtables import compare_each_with_table, parse_field_table

    with open(args.table, newline="") as handle:
        entries = parse_field_table(handle)
    bound = args.assume_complete_below
    for comparison in compare_each_with_table(
        _predictions(args), entries, assume_complete_below=bound
    ):
        # the fields are in row order, and JSON writes the tuples as lists
        yield comparison._asdict()


def _noting_verdicts(rows, verdicts: set):
    for row in rows:
        verdicts.add(row["verdict"])
        yield row


def _write_out(path: str, text: str) -> None:
    # a regular file, or a new one, is written to a temporary file beside
    # it, made with the old file's mode bits (under the umask), that is
    # then renamed over it, so a write that fails part-way leaves the old
    # file, or none; a symlink is followed, and a device or a pipe such
    # as /dev/stdout is written in place
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w") as handle:
            handle.write(text)
        return
    mode = os.stat(target).st_mode & 0o777 if os.path.exists(target) else 0o666
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        with open(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode), "w") as handle:
            handle.write(text)
        os.replace(temporary, target)
    except BaseException as err:
        if os.path.exists(temporary):
            os.unlink(temporary)
        if isinstance(err, OSError) and err.filename == temporary:
            raise OSError(err.errno, err.strerror, path) from None
        raise


def main(argv: list[str] | None = None) -> int:
    """Execute one command, from argv or else sys.argv[1:], and write its
    report; returns the exit code, 1 on a bad invocation or IO and 2
    when some row's verdict is "fail".

    The rows stream into the report text, which is written only once it
    is built in full, so a run that raises part-way writes nothing, and
    --out replaces its file whole (see _write_out)."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        # the two rules between check-table's options that argparse
        # cannot state
        if args.command == "check-table":
            if args.ell is None and not args.corollary5:
                parser.error("check-table needs --ell or --corollary5")
            if args.corollary5 and args.ell not in (None, 5):
                parser.error("--corollary5 requires --ell 5")
        rows = args.runner(args)
        verdicts: set = set()
        if "verdict" in args.columns:
            rows = _noting_verdicts(rows, verdicts)
        text = emit_report(rows, args.format, args.columns)
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write_out(args.out, text)
        return 2 if "fail" in verdicts else 0
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
