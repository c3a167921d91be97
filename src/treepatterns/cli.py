"""Command line front end.

Each command reads its inputs, returns its rendered text and its exit
code, and writes nothing: main alone writes that text, to stdout or to
--out.  Exit codes: 0 success, 1 usage error, 2 invalid input (file,
format, non-UTF-8 text, out-of-domain or out-of-memory request), 3
verification failure, whose report is still written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import FormatError, TreePatternError
from .isomorphism import (
    RootedPattern,
    aut_rooted,
    aut_unrooted,
    pattern_from_text,
)
from .moments import EXACT_FIELDS, moment_report, rational_str
from .montecarlo import (
    convergence_csv,
    convergence_experiment,
    estimate_pattern_stats,
    sample_tree,
    stream_for,
)
from .oracle import (
    DEFAULT_CAP,
    _check_cap,
    _check_verifiable,
    verify_labelled_count,
    verify_moments,
)
from .patterns import (
    BUILTIN_PATTERN_HELP,
    find_patterns,
    is_builtin_pattern_name,
    pattern_from_name,
)
from .trees import (
    RootedTree,
    prufer_decode,
    prufer_encode,
    prufer_from_text,
    prufer_to_text,
    rootify,
    tree_center,
    tree_from_text,
    tree_to_text,
)

USAGE_ERROR = 1
INPUT_ERROR = 2
VERIFY_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for bad
    # input files, so remap.
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError:
        where = "stdin" if path == "-" else repr(path)
        raise FormatError(f"{where} is not UTF-8 text") from None
    # Some editors start UTF-8 files with a byte-order mark; it is not data.
    return text.removeprefix("\ufeff")


def _load_tree(path: str):
    return tree_from_text(_read_text(path))


def _load_pattern(source: str) -> RootedPattern:
    if is_builtin_pattern_name(source):
        return pattern_from_name(source)
    return pattern_from_text(_read_text(source))


def _json(rec) -> str:
    return json.dumps(rec, indent=2) + "\n"


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> tuple[str, int]:
    return tree_to_text(sample_tree(args.n, stream_for(args.seed, 0))), 0


def _cmd_encode(args) -> tuple[str, int]:
    return prufer_to_text(prufer_encode(_load_tree(args.file))), 0


def _cmd_decode(args) -> tuple[str, int]:
    s = prufer_from_text(_read_text(args.file))
    return tree_to_text(prufer_decode(s)), 0


def _cmd_count(args) -> tuple[str, int]:
    t = _load_tree(args.tree)
    occs = find_patterns(t, _load_pattern(args.pattern))
    if args.json:
        return _json({
            "count": len(occs),
            "occurrences": [{"root": o.root, "others": sorted(o.others)}
                            for o in occs],
        }), 0
    return _lines([str(len(occs))] + [
        f"{o.root}: {' '.join(str(v) for v in sorted(o.others))}"
        for o in occs]), 0


def _cmd_aut(args) -> tuple[str, int]:
    t = _load_tree(args.tree)
    if args.root is not None:
        return f"{aut_rooted(RootedTree(t, args.root))}\n", 0
    return f"{aut_unrooted(t)}\n", 0


def _cmd_center(args) -> tuple[str, int]:
    c = tree_center(_load_tree(args.tree))
    if c.is_edge:
        return f"edge {c.vertices[0]} {c.vertices[1]}\n", 0
    return f"vertex {c.vertex}\n", 0


def _cmd_rootify(args) -> tuple[str, int]:
    rt = rootify(_load_tree(args.tree))
    return tree_to_text(rt.tree) + f"root {rt.root}\n", 0


def _cmd_moments(args) -> tuple[str, int]:
    rep = moment_report(_load_pattern(args.pattern), args.n)
    d = rep.to_dict()
    if args.json:
        return _json(d), 0
    return _lines([
        f"n                    {rep.n}",
        f"p                    {rep.p}",
        f"aut_root_order       {rep.aut_root_order}",
        *(f"{k:<21}{d[k]} ({d[k + '_float']:.6g})" for k in EXACT_FIELDS),
        f"asymptotic_slope     {rep.asymptotic_slope:.10g}",
    ]), 0


def _fmt_opt(q) -> str:
    return rational_str(q) if q is not None else "-"


def _cmd_verify(args) -> tuple[str, int]:
    pat = _load_pattern(args.pattern)
    if args.n is not None:
        ns = [args.n]
    else:
        n_max = args.n_max if args.n_max is not None else pat.p + 2
        ns = range(pat.p + 2, n_max + 1)
        if not ns:
            raise TreePatternError(
                f"--n-max {n_max} is below the first verifiable n = "
                f"{pat.p + 2}")
    # Both ends of the range are checked before the first sweep, so an
    # out-of-range --n or --n-max fails at once, without listing every n.
    _check_cap(ns[-1], args.cap)
    _check_verifiable(pat, ns[0])
    lc = verify_labelled_count(pat)
    results = [verify_moments(pat, n, cap=args.cap, workers=args.workers)
               for n in ns]
    passed = lc.equal and all(r.all_passed for r in results)
    code = 0 if passed else VERIFY_FAILURE
    if args.json:
        return _json({
            "pattern": args.pattern,
            "p": pat.p,
            "aut_root_order": pat.aut_root_order,
            "labelled_count": {
                "enumerated": lc.enumerated,
                "formula": lc.formula,
                "equal": lc.equal,
            },
            "moments": [
                {
                    "n": r.n,
                    "checks": [
                        {
                            "name": c.name,
                            "oracle": _fmt_opt(c.oracle_value),
                            "formula": _fmt_opt(c.formula_value),
                            "status": c.status,
                            "note": c.note,
                        }
                        for c in r.checks
                    ],
                }
                for r in results
            ],
            "passed": passed,
        }), code
    lines = [
        f"labelled_count           enumerated={lc.enumerated} "
        f"formula={lc.formula} {'ok' if lc.equal else 'FAIL'}"
    ]
    for r in results:
        for c in r.checks:
            if c.status == "skipped":
                lines.append(f"n={r.n:<3} {c.name:<24} skipped ({c.note})")
            else:
                mark = "ok" if c.status == "ok" else "FAIL"
                lines.append(
                    f"n={r.n:<3} {c.name:<24} oracle={_fmt_opt(c.oracle_value)} "
                    f"formula={_fmt_opt(c.formula_value)} {mark}")
    lines.append("all checks passed" if passed else "VERIFICATION FAILED")
    return _lines(lines), code


def _cmd_mc(args) -> tuple[str, int]:
    pat = _load_pattern(args.pattern)
    est = estimate_pattern_stats(pat, args.n, args.samples, args.seed,
                                 args.workers)
    if args.json:
        return _json(est.to_dict()), 0
    return _lines([
        f"n          {est.n}",
        f"samples    {est.samples}",
        f"seed       {est.seed}",
        f"hits_ge1   {est.hits_ge1}",
        f"p_hat      {est.p_hat:.6g}  (95% CI {est.p_ci_low:.6g}.."
        f"{est.p_ci_high:.6g})",
        f"mean_hat   {est.mean_hat:.6g}  (stderr {est.stderr_mean:.3g})",
    ]), 0


def _cmd_converge(args) -> tuple[str, int]:
    pat = _load_pattern(args.pattern)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok]
    except ValueError:
        n_list = []
    if not n_list:
        raise TreePatternError(f"bad --n-list {args.n_list!r}")
    rows = convergence_experiment(pat, n_list, args.samples, args.seed,
                                  args.workers)
    if args.csv:
        return convergence_csv(rows), 0
    lines = [f"{'n':>6} {'p_hat':>10} {'ci_low':>10} {'ci_high':>10} "
             f"{'mean_hat':>10} {'exact_mean':>12} {'cheb_bound':>12}"]
    for row in rows:
        e = row.estimate
        exact = (f"{float(row.exact_mean):.6g}"
                 if row.exact_mean is not None else "-")
        bound = (f"{float(row.cheb_bound):.6g}"
                 if row.cheb_bound is not None else "-")
        lines.append(f"{e.n:>6} {e.p_hat:>10.6f} {e.p_ci_low:>10.6f} "
                     f"{e.p_ci_high:>10.6f} {e.mean_hat:>10.6f} "
                     f"{exact:>12} {bound:>12}")
    return _lines(lines), 0


# Options that several commands take, each declared once.  A command
# lists the ones it takes, in the order its --help shows them.
_TREE = "--tree", dict(required=True, metavar="FILE")
_PATTERN = "--pattern", dict(required=True, metavar="FILE|NAME",
                             help=BUILTIN_PATTERN_HELP)
_N = "--n", dict(type=int, required=True)
_SAMPLES = "--samples", dict(type=int, required=True)
_SEED = "--seed", dict(type=int, required=True)
_WORKERS = "--workers", dict(type=int, default=1)
_JSON = "--json", dict(action="store_true")


@functools.cache  # built on the first main() call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treepatterns",
        description="Pattern statistics of uniform random labelled trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def take(sp, *shared):
        for flag, spec in shared:
            sp.add_argument(flag, **spec)

    def add(name, func, help_text, *shared):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--out", default=None, metavar="FILE",
                        help="write output here instead of stdout")
        take(sp, *shared)
        return sp

    add("gen", _cmd_gen, "sample a uniform random tree", _N, _SEED)

    sp = add("encode", _cmd_encode, "tree file to Pruefer sequence")
    sp.add_argument("file", nargs="?", default="-",
                    help="tree file, '-' for stdin")

    sp = add("decode", _cmd_decode, "Pruefer sequence to tree file")
    sp.add_argument("file", nargs="?", default="-",
                    help="sequence file, '-' for stdin")

    add("count", _cmd_count, "count pattern occurrences in a tree",
        _TREE, _PATTERN, _JSON)

    sp = add("aut", _cmd_aut, "automorphism group order of a tree", _TREE)
    sp.add_argument("--root", type=int, default=None,
                    help="count only root-fixing automorphisms")

    add("center", _cmd_center, "center vertex or edge of a tree", _TREE)
    add("rootify", _cmd_rootify, "root a tree at its center", _TREE)
    add("moments", _cmd_moments, "exact moment report for a pattern",
        _PATTERN, _N, _JSON)

    sp = add("verify", _cmd_verify,
             "compare formulas against exhaustive enumeration", _PATTERN)
    one_or_all = sp.add_mutually_exclusive_group()
    one_or_all.add_argument("--n", type=int, default=None,
                            help="verify a single n")
    one_or_all.add_argument("--n-max", type=int, default=None,
                            help="verify every n from p + 2 up to this")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="enumeration cap (hard limit 10)")
    take(sp, _WORKERS, _JSON)

    add("mc", _cmd_mc, "Monte Carlo estimate for one n", _PATTERN, _N,
        _SAMPLES, _SEED, _WORKERS, _JSON)

    sp = add("converge", _cmd_converge,
             "Monte Carlo containment across several n", _PATTERN)
    sp.add_argument("--n-list", required=True, metavar="A,B,C")
    take(sp, _SAMPLES, _SEED, _WORKERS)
    sp.add_argument("--csv", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.func(args)
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except (TreePatternError, OSError, MemoryError) as exc:
        print(f"treepatterns: {str(exc) or 'out of memory'}", file=sys.stderr)
        return INPUT_ERROR


def run() -> None:
    sys.exit(main())
