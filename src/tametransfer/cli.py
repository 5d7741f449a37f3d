"""Command-line front end.

Every invocation writes exactly one JSON document to standard output and
nothing else there; human diagnostics go to standard error.  The one
exception is ``-h``/``--help``, at the top or after a command, which prints
the usage text instead and exits 0.  Exit codes:
0 success, 1 usage error, 2 domain error, 3 internal error (any other
exception, reported with error kind "InternalError" and its traceback on
standard error).  All integers that can exceed a machine word are rendered
as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characters import CharExp, char, char_order, ell_regular_part, enumerate_orbits, orbit_of, orbit_size
from .errors import DomainError, NotPrimePower, OutOfRange, ZsigmondyException, short_text
from .green import green_trace
from .jsonio import (
    certificate_to_json,
    char_to_json,
    cyclotomic_to_json,
    lift_to_json,
    orbit_to_json,
)
from .linking import build_link_chain, linked_partition
from .numth import is_prime_power
from .regularize import regularize, zsigmondy_prime
from .tame import (
    apply_transfer,
    orbit_to_pair,
    pair_to_orbit,
    rectifier,
    tame_pair,
    transfer_pair,
    transfer_via_descent,
)
from .tower import TowerParams, _Record, derive_tower, field_level, level


class CommandResult(_Record):
    """The outcome of one run; ``status`` is "ok" exactly for exit code 0."""

    __slots__ = ("exit_code", "payload", "error_kind", "message", "status")

    def __init__(self, exit_code: int, payload: dict | None, error_kind: str | None, message: str | None) -> None:
        self._fill(exit_code, payload, error_kind, message, "error" if exit_code else "ok")

    def document(self) -> dict:
        if self.status == "ok":
            return {"status": "ok", "payload": self.payload}
        return {"status": "error", "error_kind": self.error_kind, "message": self.message}


class _UsageError(Exception):
    pass


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter at the width it takes with no terminal (80 columns less 2), whatever
    ``COLUMNS`` says, so that a usage error prints the same document on every terminal."""

    def __init__(self, prog: str, **kwargs) -> None:
        super().__init__(prog, **{**kwargs, "width": 78})


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs, formatter_class=_Formatter)

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(f"{short_text(message)}\n{self.format_usage()}")  # argparse echoes arguments in full


_SHAPE_KEYS = ("p", "q", "eEF", "fEF", "m", "d")


def _add_shape_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--shape", help="comma-separated p,q,eEF,fEF,m,d")
    for key in _SHAPE_KEYS:
        sub.add_argument(f"--{key}", dest=f"shape_{key}", type=int)


def _resolve_shape(args: argparse.Namespace) -> TowerParams:
    vals: dict[str, int] = {}
    if args.shape:
        parts = args.shape.split(",")
        if len(parts) != 6:
            raise _UsageError("--shape expects six comma-separated integers p,q,eEF,fEF,m,d")
        try:
            vals.update(dict(zip(_SHAPE_KEYS, (int(x) for x in parts))))
        except ValueError as exc:
            raise _UsageError(f"bad integer in --shape: {exc}") from exc
    for key in _SHAPE_KEYS:
        flag = getattr(args, f"shape_{key}")
        if flag is not None:
            vals[key] = flag
    missing = [k for k in _SHAPE_KEYS if k not in vals]
    if missing:
        raise _UsageError(f"missing shape parameters: {', '.join(missing)}")
    return derive_tower(vals["p"], vals["q"], vals["eEF"], vals["fEF"], vals["m"], vals["d"])


def _shape_payload(params: TowerParams) -> dict:
    return {
        "p": params.p,
        "q": params.q,
        "eEF": params.e_ef,
        "fEF": params.f_ef,
        "m": params.m,
        "d": params.d,
        "g": params.g,
        "n": params.n,
        "Q": str(params.Q),
        "dprime": params.d_prime,
        "mprime": params.m_prime,
        "nprime": params.n_prime,
    }


def _cmd_tower(args) -> dict:
    return _shape_payload(_resolve_shape(args))


def _level_char(args) -> CharExp:
    lvl = field_level(args.Q, args.nprime)
    return char(lvl, args.a)


def _cmd_orbit(args) -> dict:
    alpha = _level_char(args)
    doc = orbit_to_json(orbit_of(alpha))
    doc.update({"Q": str(alpha.level.Q), "level_deg": alpha.level.deg, "M": str(alpha.level.M)})
    return doc


def _cmd_order(args) -> dict:
    alpha = _level_char(args)
    return {"a": str(alpha.a), "M": str(alpha.level.M), "order": str(char_order(alpha))}


def _cmd_regular_part(args) -> dict:
    alpha = _level_char(args)
    reg = ell_regular_part(alpha, args.ell)
    return {
        "alpha": char_to_json(alpha),
        "ell": str(args.ell),
        "regular_part": char_to_json(reg),
        "order": str(char_order(reg)),
    }


def _cmd_chain(args) -> dict:
    if args.M is not None and args.Q is None and args.nprime is None:
        if args.M < 1:
            raise OutOfRange(f"--M must be at least 1, got {args.M}")
        # Frobenius multiplication by M+1 is trivial mod M, so a bare modulus
        # is modeled as the degree-one level over a base of that cardinality.
        lvl = field_level(args.M + 1, 1)
    elif args.M is None and args.Q is not None and args.nprime is not None:
        lvl = field_level(args.Q, args.nprime)
    else:
        raise _UsageError("chain needs either --M alone or both --Q and --nprime")
    chain = build_link_chain(char(lvl, args.src), char(lvl, args.dst))
    return {
        "M": str(lvl.M),
        "from": str(chain.source.a),
        "to": str(chain.target.a),
        "primes": [str(p) for p in chain.primes],
        "steps": [
            {"ell": str(s.ell), "before": orbit_to_json(s.before), "after": orbit_to_json(s.after)}
            for s in chain.steps
        ],
    }


def _cmd_partition(args) -> dict:
    lvl = field_level(args.Q, args.nprime)
    blocks = linked_partition(lvl)
    return {
        "Q": str(args.Q),
        "nprime": args.nprime,
        "M": str(lvl.M),
        "blocks": [[str(rep) for rep in block] for block in blocks],
        "block_count": len(blocks),
    }


def _cmd_zsigmondy(args) -> dict:
    hit = zsigmondy_prime(args.b, args.r)
    if hit is None:
        raise ZsigmondyException(f"no primitive prime divisor for b={args.b}, r={args.r}")
    ell, cert = hit
    return {"b": str(args.b), "r": args.r, "ell": str(ell), "certificate": certificate_to_json(cert)}


def _cmd_regularize(args) -> dict:
    params = _resolve_shape(args)
    alpha = char(level(params, params.n_prime), args.alpha)
    lift = regularize(alpha, params)
    doc = lift_to_json(lift)
    doc["alpha"] = char_to_json(alpha)
    doc["f"] = orbit_size(alpha)
    return doc


def _cmd_rectifier(args) -> dict:
    spec = rectifier(_resolve_shape(args))
    return {
        "y": spec.y,
        "w": spec.w,
        "v": spec.v,
        "u": spec.u,
        "mu_exp": str(spec.mu.a),
        "nontrivial": spec.nontrivial,
        "nprime": spec.params.n_prime,
        "M": str(spec.mu.level.M),
    }


def _cmd_transfer(args) -> dict:
    params = _resolve_shape(args)
    spec = rectifier(params)
    source = orbit_of(char(level(params, params.n_prime), args.alpha))
    return {
        "mu_exp": str(spec.mu.a),
        "from": orbit_to_json(source),
        "to": orbit_to_json(apply_transfer(source, spec)),
    }


def _cmd_transfer_descent(args) -> dict:
    params = _resolve_shape(args)
    alpha = char(level(params, params.n_prime), args.alpha)
    return {
        "from": orbit_to_json(orbit_of(alpha)),
        "to": orbit_to_json(transfer_via_descent(alpha, params)),
        "lift": lift_to_json(regularize(alpha, params)),
        "agrees_with_rectifier": True,
    }


def _cmd_pair(args) -> dict:
    params = _resolve_shape(args)
    pair = tame_pair(params, args.f, args.beta)
    orbit = pair_to_orbit(pair, params)
    back = orbit_to_pair(orbit, params)
    return {
        "f": pair.f,
        "beta": str(pair.beta.a),
        "M_l": str(pair.beta.level.M),
        "orbit": orbit_to_json(orbit),
        "round_trip_ok": back == pair,
    }


def _cmd_pair_transfer(args) -> dict:
    params = _resolve_shape(args)
    pair = tame_pair(params, args.f, args.beta)
    moved = transfer_pair(pair, params)
    return {
        "from": {"f": pair.f, "beta": str(pair.beta.a)},
        "to": {"f": moved.pair.f, "beta": str(moved.pair.beta.a)},
        "mu_L": str(moved.mu_l.a),
        "mu_L_order": str(char_order(moved.mu_l)),
    }


def _cmd_green(args) -> dict:
    lvl = field_level(args.d, args.u)  # the level guard, before the prime-power test
    if is_prime_power(args.d) is None:
        raise NotPrimePower(f"base cardinality d={args.d} is not a prime power")
    trace = green_trace(char(lvl, args.alpha0), args.g, args.u)
    return cyclotomic_to_json(trace)


def _cmd_table(args) -> dict:
    params = _resolve_shape(args)
    spec = rectifier(params)
    lvl = level(params, params.n_prime)
    pairs = []
    for o in enumerate_orbits(lvl):
        source = orbit_to_json(o)
        image = apply_transfer(o, spec)
        # A trivial rectifier hands back the orbit itself: reuse its document.
        pairs.append({"from": source, "to": source if image is o else orbit_to_json(image)})
    return {"shape": _shape_payload(params), "mu_exp": str(spec.mu.a), "pairs": pairs}


def _cmd_selftest(args) -> dict:
    from .selftest import run_selftest  # imported here: no other command pays for it

    return run_selftest()


_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}


def _ints(*flags: str) -> tuple:
    return tuple((flag, _REQUIRED_INT) for flag in flags)


# name -> (help line, takes the shape flags, its own flags in usage order);
# the handler of a command is ``_cmd_<name>``, looked up when the parser is built
_COMMANDS: dict[str, tuple[str | None, bool, tuple]] = {
    "tower": ("derive all tower invariants from a shape", True, ()),
    "orbit": (None, False, _ints("--Q", "--nprime", "--a")),
    "order": (None, False, _ints("--Q", "--nprime", "--a")),
    "regular-part": (None, False, _ints("--Q", "--nprime", "--a", "--ell")),
    "chain": (None, False, (("--M", _INT), ("--Q", _INT), ("--nprime", _INT),
                            ("--from", {**_REQUIRED_INT, "dest": "src"}), ("--to", {**_REQUIRED_INT, "dest": "dst"}))),
    "partition": (None, False, _ints("--Q", "--nprime")),
    "zsigmondy": (None, False, _ints("--b", "--r")),
    "regularize": (None, True, _ints("--alpha")),
    "rectifier": (None, True, ()),
    "transfer": (None, True, _ints("--alpha")),
    "transfer-descent": (None, True, _ints("--alpha")),
    "pair": (None, True, _ints("--f", "--beta")),
    "pair-transfer": (None, True, _ints("--f", "--beta")),
    "green": (None, False, _ints("--d", "--u", "--alpha0", "--g")),
    "table": (None, True, ()),
    "selftest": (None, False, ()),
}


def build_parser(argv: list[str]) -> _Parser:
    """The parser for ``argv``: when ``argv`` starts with a command name, only
    that command's subparser is built, under the same usage line as the full
    parser; otherwise, an empty ``argv`` included, every command's."""
    parser = _Parser(prog="tametransfer", description=__doc__)
    names = (argv[0],) if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    # With one command built, the usage line still names every command.  The
    # full parser keeps no metavar: one would rename the command argument in
    # its own errors ("invalid choice", "required").
    metavar = "{%s}" % ",".join(_COMMANDS) if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, shape, flags = _COMMANDS[name]
        # help=None would still list the command, blank, under the full help's commands
        p = sub.add_parser(name, **({"help": help_line} if help_line else {}))
        if shape:
            _add_shape_flags(p)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def run(argv: list[str]) -> CommandResult:
    """Parse and execute; never raises, except for ``--help``'s SystemExit."""
    try:
        args = build_parser(argv).parse_args(argv)
        return CommandResult(0, args.handler(args), None, None)
    except _UsageError as exc:
        return CommandResult(1, None, "UsageError", str(exc))
    except DomainError as exc:
        return CommandResult(2, None, exc.kind, str(exc))
    except Exception as exc:  # noqa: BLE001 - the last resort keeps the one-document contract
        import traceback

        traceback.print_exc()  # to stderr, so the internal fault stays traceable
        return CommandResult(3, None, "InternalError", f"{type(exc).__name__}: {exc}")


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(json.dumps(result.document(), sort_keys=True) + "\n")
    if result.status == "error":
        sys.stderr.write(f"{result.error_kind}: {result.message}\n")
    return result.exit_code
