"""Command line front end.

Exit codes: 0 for success (including Equivalent verdicts), 1 for failed
checks, library errors, running out of memory, and NotEquivalent, 2 for
inconclusive results (Unknown verdicts, or verifying a document that
only records one), 64 for usage problems, 65 for malformed input files.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BratteliError, ParseError
from .fileformat import INTEGER, parse_diagram

# Each command imports what it calls when it runs, so a process loads
# only the modules of its own command (`validate` loads none of them).

USAGE_EXIT = 64
PARSE_EXIT = 65

# characters `states` writes at a time
_CHUNK = 1 << 16

# the steps of about 0.3 us (_sample_steps) that `arch-check` takes
_SAMPLE_BUDGET = 1 << 24


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _integer(text):
    if not INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # past int()'s limit of sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(
            f"an integer of {len(text)} digits is too long"
        ) from None


def _positive_int(text):
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text, flag):
    out = []
    for piece in text.split(","):
        try:
            out.append(_integer(piece.strip()))
        except argparse.ArgumentTypeError as e:
            raise _UsageError(f"{flag} wants comma-separated integers: {e}") from None
    return out


def _read(path):
    """The file's text; bytes that are not UTF-8 raise a ParseError at the
    line and column of the first bad one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[: e.start].decode("utf-8")
        err = ParseError(
            f"byte 0x{data[e.start]:02x} is not UTF-8",
            head.count("\n") + 1,
            len(head) - head.rfind("\n"),
        )
        err.path = path
        raise err from None


def _load(path):
    text = _read(path)
    try:
        return parse_diagram(text)
    except ParseError as e:
        e.path = path
        raise


def _cmd_validate(args):
    seq = _load(args.file)
    tail = "none"
    if seq.is_tailed:
        tail = f"{seq.tail_kind} from level {seq.periodic_tail}"
    print(f"levels: {seq.length}")
    print("ranks: " + " ".join(str(r) for r in seq.ranks))
    print(f"tail: {tail}")
    print(f"injective: {'yes' if seq.is_injective_presentation() else 'no'}")
    return 0


def _cmd_telescope(args):
    from .diagram import telescope
    from .fileformat import serialize_diagram

    seq = _load(args.file)
    keep = _int_list(args.keep, "--keep")
    sys.stdout.write(serialize_diagram(telescope(seq, keep)))
    return 0


def _cmd_injectivize(args):
    from .diagram import injectivize
    from .fileformat import serialize_diagram

    seq = _load(args.file)
    pruned, inclusions = injectivize(seq)
    sys.stdout.write(serialize_diagram(pruned))
    for t, kept in enumerate(inclusions, start=1):
        print(f"# kept at level {t}: " + " ".join(str(c + 1) for c in kept))
    return 0


def _cmd_tensor(args):
    from .fileformat import serialize_diagram
    from .tensor import tensor_seq

    left = _load(args.left)
    right = _load(args.right)
    sys.stdout.write(serialize_diagram(tensor_seq(left, right)))
    return 0


def _cmd_tensorq(args):
    from .fileformat import serialize_diagram
    from .supernat import SupernaturalNumber
    from .tensor import tensor_qn

    seq = _load(args.file)
    try:
        n = SupernaturalNumber.parse(args.n)
    except ValueError as e:
        raise _UsageError(f"--n: {e}")
    sys.stdout.write(serialize_diagram(tensor_qn(seq, n, args.depth)))
    return 0


def _cmd_unit_change(args):
    from . import certio
    from .intertwine import unit_change

    seq = _load(args.file)
    unit = tuple(_int_list(args.unit, "--unit"))
    cert = unit_change(seq, unit, args.depth, args.strategy)
    certio.dump(certio.unit_change_to_doc(cert), sys.stdout.write)
    return 0


def _cmd_states(args):
    from .diagram import _LIST_BUDGET
    from .errors import TooLarge
    from .states import exact_image_runs, float_image_runs

    seq = _load(args.file)
    # floats never fail on size; an exact value too long to write is
    # refused before anything is written, and so are more values than
    # the listing budget: one per --level coordinate on every line
    image_runs = float_image_runs if args.decimal else exact_image_runs
    unit, runs = image_runs(seq, args.level, args.depth)
    count = len(unit) * sum(n for _, n in runs)
    if count > _LIST_BUDGET:
        where = f"level {args.level} at depth {args.depth}"
        raise TooLarge(f"{where} writes {count} values, more than {_LIST_BUDGET}")
    # line i is zeros with the value 1/u_i at place i; it is formatted
    # when its run is written, so nothing is kept per vertex.  str(1 / u)
    # is str(float(Fraction(1, u))), and the Fraction reads "1/u" or "1"
    zero = "0.0" if args.decimal else "0"
    last = len(unit) - 1
    for i, n in runs:
        u = unit[i]
        if args.decimal:
            value = str(1 / u)
        else:
            value = f"1/{u}" if u != 1 else "1"
        line = f"{zero} " * i + value + f" {zero}" * (last - i) + "\n"
        per = max(1, _CHUNK // len(line))
        for done in range(0, n, per):
            sys.stdout.write(line * min(per, n - done))
    return 0


def _cmd_canon(args):
    from . import certio
    from .equiv import canonicalize_q

    seq = _load(args.file)
    # a diagonal entry too long to write is refused as its level is
    # formed, before the first row is written
    system, units = canonicalize_q(seq)
    # the diagonal entry 1/u is written as str(Fraction(1, u)) reads
    doc = {
        "kind": "canonical-form",
        "sizes": [str(v) for v in system.sizes],
        "parents": ([str(p + 1) for p in ps] for ps in system.parents),
        "repeat": None if system.periodic_tail is None else str(system.periodic_tail),
        "diagonals": (["1" if v == 1 else f"1/{v}" for v in u] for u in units),
    }
    certio.dump(doc, sys.stdout.write)
    return 0


def _cmd_equiv(args):
    from . import certio
    from .equiv import Equivalent, NotEquivalent, equivalent_q

    left = _load(args.left)
    right = _load(args.right)
    verdict = equivalent_q(left, right, args.depth)
    certio.dump(certio.verdict_to_doc(verdict, left, right), sys.stdout.write)
    if isinstance(verdict, Equivalent):
        return 0
    if isinstance(verdict, NotEquivalent):
        return 1
    return 2


def _draw_ranks(seq):
    # the ranks of the levels arch-check draws from: 1..L untailed, else
    # on to the last of L+1..L+2*period before the first one past rank
    # 1000
    from itertools import takewhile

    L, p = seq.length, seq.periodic_tail
    if p is None:
        return seq.ranks
    past = map(seq.rank_at, range(L + 1, 3 * L - 2 * p + 1))
    return seq.ranks + tuple(takewhile(lambda r: r <= 1000, past))


def _sample_steps(seq, ranks):
    # at most the steps of one arch-check sample, of about 0.3 us each.
    # It draws two vectors and pushes one of them up along at most every
    # drawn level: one step per coordinate, and 8 a level past the first,
    # or 48 past L, where map_at unrolls the tail.  The push cuts every
    # multiplicity at 5, one past the largest |entry| drawn, so no number
    # it forms is much longer than the ones it reads (diagram._pushed_pair)
    n, L = len(ranks), seq.length
    return 64 + sum(ranks) + 8 * (min(n, L) - 1) + 48 * max(0, n - L)


def _cmd_arch_check(args):
    import random

    from .diagram import LimitElement, forall_n_leq_limit, limit_leq

    seq = _load(args.file)
    rng = random.Random(args.seed)
    ranks = _draw_ranks(seq)
    steps = _sample_steps(seq, ranks)
    if args.samples * steps > _SAMPLE_BUDGET:
        from .errors import TooLarge

        raise TooLarge(
            f"{args.samples} samples of up to {steps} steps are more than "
            f"{_SAMPLE_BUDGET} steps"
        )
    entries = range(-4, 5)

    # every level drawn is at least 1 and every entry an int of entries,
    # so the elements are built without LimitElement's checks
    def draw():
        t = rng.randint(1, len(ranks))
        return LimitElement._of(t, tuple(rng.choices(entries, k=ranks[t - 1])))

    for _ in range(args.samples):
        x = draw()
        y = draw()
        if forall_n_leq_limit(seq, x, y):
            zero = LimitElement._of(x.level, (0,) * len(x.vec))
            if not limit_leq(seq, x, zero):
                print(
                    f"counterexample: x at level {x.level} = {x.vec}, "
                    f"y at level {y.level} = {y.vec}"
                )
                return 1
    print(f"ok: {args.samples} samples, property held")
    return 0


def _cmd_verify(args):
    import json

    from . import certio
    from .equiv import equivalence_certificate_failures, not_equivalent_failures
    from .intertwine import certificate_failures

    try:
        doc = json.loads(_read(args.file))
    except json.JSONDecodeError as e:
        err = ParseError(str(e), e.lineno, e.colno)
        err.path = args.file
        raise err
    except ValueError:  # a bare JSON integer past int()'s digit limit
        raise BratteliError(
            "a JSON number is too long to read; certificate numbers are decimal strings"
        ) from None
    except RecursionError:
        raise BratteliError("the JSON nests too deeply to read") from None
    kind = doc.get("kind") if isinstance(doc, dict) else None
    try:
        if kind == "unit-change":
            failures = certificate_failures(certio.unit_change_from_doc(doc))
        elif kind == "equivalence":
            verdict = doc.get("verdict")
            if verdict == "unknown":
                print("verdict is unknown; nothing to verify")
                return 2
            if verdict == "equivalent":
                failures = equivalence_certificate_failures(
                    certio.equivalence_certificate_from_doc(doc)
                )
            elif verdict == "not-equivalent":
                failures = not_equivalent_failures(
                    *certio.not_equivalent_from_doc(doc)
                )
            else:
                raise BratteliError(f"unsupported verdict {verdict!r}")
        else:
            raise BratteliError(f"unsupported certificate kind {kind!r}")
    except ValueError as e:
        raise BratteliError(str(e)) from None
    if failures:
        for line in failures:
            print(f"fail: {line}")
        return 1
    print("ok: certificate verified")
    return 0


def _file(p):
    p.add_argument("file")


def _two_files(p):
    p.add_argument("left")
    p.add_argument("right")


def _telescope_args(p):
    _file(p)
    p.add_argument("--keep", required=True, help="comma-separated levels, from 1")


def _tensorq_args(p):
    _file(p)
    p.add_argument("--n", required=True, help="supernatural number, e.g. 2^inf*3")
    p.add_argument("--depth", required=True, type=_positive_int)


def _unit_change_args(p):
    _file(p)
    p.add_argument("--unit", required=True, help="comma-separated entries")
    p.add_argument("--depth", required=True, type=_positive_int)
    p.add_argument("--strategy", choices=("minimal", "paper"), default="minimal")


def _states_args(p):
    _file(p)
    p.add_argument("--level", required=True, type=_positive_int)
    p.add_argument("--depth", required=True, type=_positive_int)
    p.add_argument(
        "--decimal", action="store_true", help="print floats instead of fractions (lossy)"
    )


def _equiv_args(p):
    _two_files(p)
    p.add_argument(
        "--depth",
        type=_positive_int,
        default=5,
        help="does not affect the verdict; only echoed in Unknown documents",
    )


def _arch_check_args(p):
    _file(p)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", required=True, type=_integer)


# (name, help, command, arguments) of every subcommand, in listed order
_COMMANDS = (
    ("validate", "parse a diagram and report its shape", _cmd_validate, _file),
    (
        "telescope",
        "restrict a diagram to chosen levels",
        _cmd_telescope,
        _telescope_args,
    ),
    ("injectivize", "prune coordinates the limit never sees", _cmd_injectivize, _file),
    ("tensor", "tensor two diagrams levelwise", _cmd_tensor, _two_files),
    ("tensorq", "tensor a diagram with Q_n", _cmd_tensorq, _tensorq_args),
    (
        "unit-change",
        "ladder between two order units",
        _cmd_unit_change,
        _unit_change_args,
    ),
    (
        "states",
        "extreme states of a deep level, pulled back",
        _cmd_states,
        _states_args,
    ),
    ("canon", "canonical form: shape plus rational diagonals", _cmd_canon, _file),
    ("equiv", "decide equivalence up to rational scaling", _cmd_equiv, _equiv_args),
    (
        "arch-check",
        "sample the archimedean property",
        _cmd_arch_check,
        _arch_check_args,
    ),
    ("verify", "recheck a certificate document", _cmd_verify, _file),
)
_NAMED = {command[0]: command for command in _COMMANDS}


def _command_parser(parser, func, arguments):
    parser.set_defaults(func=func)
    arguments(parser)
    return parser


def _build_parser():
    parser = _Parser(prog="bratteli", description="Exact Bratteli diagram toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, text, func, arguments in _COMMANDS:
        _command_parser(sub.add_parser(name, help=text), func, arguments)
    return parser


def _parse(argv):
    # the full parser's top level has only -h and the subcommand, whose
    # parser it hands every later word, and _Parser.error shows no prog:
    # so that parser alone reads a line that starts with its name
    if not argv or argv[0] not in _NAMED:
        return _build_parser().parse_args(argv)
    name, _, func, arguments = _NAMED[argv[0]]
    parser = _Parser(prog=f"bratteli {name}")
    return _command_parser(parser, func, arguments).parse_args(argv[1:])


def run(argv) -> int:
    try:
        args = _parse(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except ParseError as e:
        where = getattr(e, "path", None)
        prefix = f"{where}: " if where else ""
        print(f"parse error: {prefix}{e}", file=sys.stderr)
        return PARSE_EXIT
    except (OSError, BratteliError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
