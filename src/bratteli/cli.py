"""Command line front end.

Exit codes: 0 for success (including Equivalent verdicts), 1 for failed
checks, library errors, and NotEquivalent, 2 for inconclusive results
(Unknown verdicts, or verifying a document that only records one),
64 for usage problems, 65 for malformed input files.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BratteliError, ParseError
from .fileformat import INTEGER, _decimal, parse_diagram

# Each command imports what it calls when it runs, so a process loads
# only the modules of its own command (`validate` loads none of them).

USAGE_EXIT = 64
PARSE_EXIT = 65

# characters `states` writes at a time
_CHUNK = 1 << 16


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
    sys.stdout.write(certio.dumps(certio.unit_change_to_doc(cert)))
    return 0


def _cmd_states(args):
    from .states import exact_image_runs, float_image_runs

    seq = _load(args.file)
    # floats never fail on size; an exact value too long to write is
    # refused before anything is written
    image_runs = float_image_runs if args.decimal else exact_image_runs
    unit, runs = image_runs(seq, args.level, args.depth)
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
    system, units = canonicalize_q(seq)
    # the diagonal entry 1/u is written as str(Fraction(1, u)) reads
    doc = {
        "kind": "canonical-form",
        "sizes": [str(v) for v in system.sizes],
        "parents": [[str(p + 1) for p in ps] for ps in system.parents],
        "repeat": None if system.periodic_tail is None else str(system.periodic_tail),
        "diagonals": [
            ["1" if v == 1 else "1/" + _decimal(v, "diagonal entry") for v in u]
            for u in units
        ],
    }
    sys.stdout.write(certio.dumps(doc))
    return 0


def _cmd_equiv(args):
    from . import certio
    from .equiv import Equivalent, NotEquivalent, equivalent_q

    left = _load(args.left)
    right = _load(args.right)
    verdict = equivalent_q(left, right, args.depth)
    sys.stdout.write(certio.dumps(certio.verdict_to_doc(verdict, left, right)))
    if isinstance(verdict, Equivalent):
        return 0
    if isinstance(verdict, NotEquivalent):
        return 1
    return 2


def _cmd_arch_check(args):
    import random

    from .diagram import LimitElement, forall_n_leq_limit, limit_leq

    seq = _load(args.file)
    rng = random.Random(args.seed)
    max_level = seq.length
    if seq.is_tailed:
        horizon = seq.length + 2 * max(1, seq.length - seq.periodic_tail)
        while max_level < horizon and seq.rank_at(max_level + 1) <= 1000:
            max_level += 1

    def draw():
        t = rng.randint(1, max_level)
        vec = tuple(rng.randint(-4, 4) for _ in range(seq.rank_at(t)))
        return LimitElement(t, vec)

    for _ in range(args.samples):
        x = draw()
        y = draw()
        if forall_n_leq_limit(seq, x, y):
            zero = LimitElement(x.level, (0,) * seq.rank_at(x.level))
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
        print(
            "error: a JSON number is too long to read; "
            "certificate numbers are decimal strings",
            file=sys.stderr,
        )
        return 1
    except RecursionError:
        print("error: the JSON nests too deeply to read", file=sys.stderr)
        return 1
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
                print(f"error: unsupported verdict {verdict!r}", file=sys.stderr)
                return 1
        else:
            print(f"error: unsupported certificate kind {kind!r}", file=sys.stderr)
            return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if failures:
        for line in failures:
            print(f"fail: {line}")
        return 1
    print("ok: certificate verified")
    return 0


def _build_parser():
    parser = _Parser(prog="bratteli", description="Exact Bratteli diagram toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a diagram and report its shape")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("telescope", help="restrict a diagram to chosen levels")
    p.add_argument("file")
    p.add_argument("--keep", required=True, help="comma-separated levels, from 1")
    p.set_defaults(func=_cmd_telescope)

    p = sub.add_parser("injectivize", help="prune coordinates the limit never sees")
    p.add_argument("file")
    p.set_defaults(func=_cmd_injectivize)

    p = sub.add_parser("tensor", help="tensor two diagrams levelwise")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("tensorq", help="tensor a diagram with Q_n")
    p.add_argument("file")
    p.add_argument("--n", required=True, help="supernatural number, e.g. 2^inf*3")
    p.add_argument("--depth", required=True, type=_positive_int)
    p.set_defaults(func=_cmd_tensorq)

    p = sub.add_parser("unit-change", help="ladder between two order units")
    p.add_argument("file")
    p.add_argument("--unit", required=True, help="comma-separated entries")
    p.add_argument("--depth", required=True, type=_positive_int)
    p.add_argument("--strategy", choices=("minimal", "paper"), default="minimal")
    p.set_defaults(func=_cmd_unit_change)

    p = sub.add_parser("states", help="extreme states of a deep level, pulled back")
    p.add_argument("file")
    p.add_argument("--level", required=True, type=_positive_int)
    p.add_argument("--depth", required=True, type=_positive_int)
    p.add_argument(
        "--decimal", action="store_true", help="print floats instead of fractions (lossy)"
    )
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("canon", help="canonical form: shape plus rational diagonals")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("equiv", help="decide equivalence up to rational scaling")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--depth",
        type=_positive_int,
        default=5,
        help="does not affect the verdict; only echoed in Unknown documents",
    )
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("arch-check", help="sample the archimedean property")
    p.add_argument("file")
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", required=True, type=_integer)
    p.set_defaults(func=_cmd_arch_check)

    p = sub.add_parser("verify", help="recheck a certificate document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except ParseError as e:
        where = getattr(e, "path", None)
        prefix = f"{where}: " if where else ""
        print(f"parse error: {prefix}{e}", file=sys.stderr)
        return PARSE_EXIT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BratteliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
