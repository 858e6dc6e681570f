"""Command-line front end.

Subcommands (`meridian4 <subcommand> --help` names its flags; --u and --v
take start:end[:step], and --grid NUxNV):
  family      generate a family profile, write (u, f, f', f'', g) CSV + spec JSON
  invariants  tabulate the invariant record on a (u, v) grid as CSV
  verify      run the verification suite, write a JSON report
  mesh        sample the embedding on a grid, write a JSON mesh

Spec text grammar (whitespace-separated key=value pairs after the family name;
expression values must not contain spaces):
  constant-gauss K=1 alpha=1 beta=0 [phi=<expr>]
  constant-mean a=0.5 b=2 C=0 eps=+ branch=+
  constant-k a=1 b=-1 c=0.5 branch=+
  chen b=1 c=1 branch=+
  parallel-a c=1 d=1 a=0 sign=+ [phi=<expr>]
  parallel-b a=1 c=1 b=-2
  direct f=<expr> phi=<expr> [g0=<real>]

Exit codes: 0 success, 1 usage, spec or parse error or failed verification,
2 truncated generation (the profile, or for invariants, verify and mesh also
the directrix, ends early).
All numeric output uses shortest round-trip float formatting; outputs carry
no timestamps, so identical invocations are byte-identical.
"""

import math
import sys
from types import SimpleNamespace

# what every subcommand runs; the rest is imported where a command needs it
from .errors import MeridianError, SpecMismatchError
from .families import (Chen, ConstantGauss, ConstantK, ConstantMean,
                       GeneratedSurface, ParallelA, ParallelB,
                       constant_kappa_directrix, generate)
from .profile import (Directrix, ProfileCurve, directrix_point, g_from_f,
                      profile_point, sample_grid)
from .surface import CLASSIFY_TOL, MeridianSurface, PointCase, classify_row, embed

INVARIANT_COLUMNS = ["gamma1", "gamma2", "nu1", "nu2", "lambda", "mu",
                     "beta1", "beta2", "K", "k", "varkappa", "H_norm",
                     "epsilon"]
MESH_FIELDS = ("K", "H_norm", "k", "lambda", "beta1", "beta2")
MESH_PROJECTIONS = ("none", "drop-e4")
MAX_ROWS = 10**7   # rows (family, invariants) or vertices (mesh) a command writes


class SpecError(MeridianError):
    pass


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecError(f"expected key=value, found {tok!r}")
        key, val = tok.split("=", 1)
        if key in out:
            raise SpecError(f"parameter {key!r} is given more than once")
        out[key] = val
    return out


def _real(kv, key, default=None):
    """Take the finite real parameter `key` out of kv."""
    if key not in kv:
        if default is not None:
            return default
        raise SpecError(f"missing parameter {key!r}")
    raw = kv.pop(key)
    try:
        val = float(raw)
    except ValueError:
        raise SpecError(f"parameter {key!r} is not a number: {raw!r}")
    if not math.isfinite(val):
        raise SpecError(f"parameter {key!r} is not finite: {raw!r}")
    return val


def _sign(kv, key, default=None):
    """Take the sign parameter `key` out of kv."""
    raw = kv.pop(key, None)
    if raw is None:
        if default is not None:
            return default
        raise SpecError(f"missing parameter {key!r}")
    if raw in ("+", "+1", "1"):
        return 1
    if raw in ("-", "-1"):
        return -1
    raise SpecError(f"parameter {key!r} must be + or -, got {raw!r}")


def parse_family_spec(text: str):
    """Parse spec text to (FamilySpec-or-'direct' dict, phi expression text).

    Raises SpecError with a one-line diagnostic naming the offending token,
    a key the family does not take included."""
    tokens = text.split()
    if not tokens:
        raise SpecError("empty spec")
    name, kv = tokens[0], _parse_kv(tokens[1:])
    try:
        parsed = _family_spec(name, kv)
    except SpecMismatchError as exc:
        raise SpecError(str(exc))
    if kv:
        raise SpecError(f"unknown parameter {next(iter(kv))!r} for {name!r}")
    return parsed


def _phi(kv):
    """Take the directrix expression out of kv; "1" when absent or empty."""
    return kv.pop("phi", None) or "1"


# name -> (spec class, its parameters in the order of its __init__): each
# parameter is (key, reader) or (key, reader, default)
_FAMILIES = {
    "constant-gauss": (ConstantGauss, (("K", _real), ("alpha", _real), ("beta", _real))),
    "constant-mean": (ConstantMean, (("a", _real), ("b", _real), ("C", _real, 0.0),
                                     ("eps", _sign), ("branch", _sign))),
    "constant-k": (ConstantK, (("a", _real), ("b", _real), ("c", _real, 0.0),
                               ("branch", _sign))),
    "chen": (Chen, (("b", _real), ("c", _real), ("branch", _sign))),
    "parallel-a": (ParallelA, (("c", _real), ("d", _real), ("a", _real, 0.0),
                               ("sign", _sign, 1))),
    "parallel-b": (ParallelB, (("a", _real), ("c", _real, 0.0), ("b", _real))),
}


def _family_spec(name, kv):
    """(spec, phi) of family `name`, taking its parameters out of kv. A
    family whose directrix has constant curvature b takes no phi, and its phi
    is None."""
    if name == "direct":
        if "f" not in kv:
            raise SpecError("direct spec needs f=<expr>")
        return {"kind": "direct", "f": kv.pop("f"),
                "g0": _real(kv, "g0", 0.0)}, _phi(kv)
    if name not in _FAMILIES:
        raise SpecError(f"unknown family {name!r}")
    cls, params = _FAMILIES[name]
    spec = cls(*(read(kv, key, *default) for key, read, *default in params))
    return spec, (_phi(kv) if spec.kappa_constant is None else None)


def _parse_range(text, what, unread=None):
    """(start, end, step or None) of --what; a step is refused where the
    reason `unread` says nothing reads it."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise SpecError(f"--{what} must be start:end[:step], got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise SpecError(f"--{what} has a non-numeric part in {text!r}")
    if not all(map(math.isfinite, vals)):
        raise SpecError(f"--{what} has a non-finite part in {text!r}")
    if vals[1] <= vals[0]:
        raise SpecError(f"--{what} range is empty: {text!r}")
    step = vals[2] if len(parts) == 3 else None
    if step is not None and step <= 0:
        raise SpecError(f"--{what} step must be positive: {text!r}")
    if step is not None and unread:
        raise SpecError(f"--{what} step {step!r} is not read {unread}")
    return vals[0], vals[1], step


def _grid_counts(args, u_step, v_step, u_range, v_range):
    if args.grid:
        try:
            nu, nv = (int(p) for p in args.grid.lower().split("x"))
        except ValueError:
            raise SpecError(f"--grid must be NUxNV, got {args.grid!r}")
        if nu < 1 or nv < 1:
            raise SpecError("--grid counts must be >= 1")
        return nu, nv
    return (_sample_count(u_range, u_step, 25, "u"),
            _sample_count(v_range, v_step, 25, "v"))


def _sample_count(domain, step, default, what):
    """The number of samples from domain[0] to domain[1] at step, or default
    when no step is given; SpecError above MAX_ROWS."""
    if step is None:
        return default
    n = (domain[1] - domain[0]) / step
    if not math.isfinite(n):
        raise SpecError(
            f"--{what} step {step!r} gives a sample count that is not finite")
    count = int(round(n)) + 1
    if count > MAX_ROWS:
        raise SpecError(f"--{what} step {step!r} gives {count:.8g} samples, more "
                        f"than the {MAX_ROWS} a command writes")
    return count


def _check_grid(nu: int, nv: int, what: str) -> None:
    """Refuse a grid of more than MAX_ROWS rows or vertices."""
    if nu * nv > MAX_ROWS:
        raise SpecError(f"a {nu}x{nv} grid has more {what} than the {MAX_ROWS} "
                        "a command writes")


def _spec_dict(spec, phi_text):
    d = dict(spec) if isinstance(spec, dict) else {
        "family": type(spec).__name__, **{key: getattr(spec, key) for key in spec.__slots__}}
    if phi_text:
        d["phi"] = phi_text
    return d


def build_surface(spec, phi_text, f0, u_range, v_range):
    """Realize the spec as a GeneratedSurface (direct specs get wrapped). A
    family's phi = 1 is the constant directrix of curvature -1, which takes
    no expression to parse."""
    if isinstance(spec, dict):
        if f0 is not None:
            raise SpecError("a direct spec takes no --f0")
        from .expressions import compile_expression  # a direct spec is two expressions
        profile = ProfileCurve(compile_expression(spec["f"], "u"), u_range,
                               spec["g0"])
        directrix = Directrix(compile_expression(phi_text, "v"), v_range)
        surf = MeridianSurface(profile, directrix)
        return GeneratedSurface(surf, None, u_range, False)
    b = spec.kappa_constant
    if b is None and phi_text == "1":
        b = -1.0
    if b is not None:
        directrix = constant_kappa_directrix(b, v_range)
    else:
        from .expressions import compile_expression  # only a phi expression needs the parser
        directrix = Directrix(compile_expression(phi_text, "v"), v_range)
    return generate(spec, f0, u_range, directrix)


def _write(path, text):
    """Write text and a final newline to path; the newline is written on its
    own, so a caller's text is not copied once more to end it."""
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def cmd_family(args) -> int:
    spec, phi_text = parse_family_spec(args.spec)
    if isinstance(spec, dict):
        raise SpecError("family command needs a family spec, not 'direct'")
    u0, u1, ustep = _parse_range(args.u, "u")
    v_range = (0.0, 2.0 * math.pi)
    if args.v:
        v0, v1, _ = _parse_range(args.v, "v", "by family")
        v_range = (v0, v1)
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), v_range)
    profile = gen.surface.profile
    rows = ["u,f,f_prime,f_double_prime,g"]
    for u in sample_grid(gen.u_range, _sample_count(gen.u_range, ustep, 50, "u")):
        p = profile_point(profile, u)
        rows.append(",".join(map(repr, (u, p.f, p.fp, p.fpp,
                                        g_from_f(profile, u)))))
    echo = {"spec": _spec_dict(spec, phi_text),
            "realized_range": list(gen.u_range),
            "truncated": gen.truncated,
            "f_source": spec.f_source}
    _write(args.out, "\n".join(rows))
    import json  # only family, verify --out and mesh write JSON
    _write(args.out.removesuffix(".csv") + ".json", json.dumps(echo, indent=2))
    return 2 if gen.truncated else 0


def cmd_invariants(args) -> int:
    spec, phi_text = parse_family_spec(args.spec)
    u0, u1, ustep = _parse_range(args.u, "u", args.grid and "with --grid")
    v0, v1, vstep = _parse_range(args.v, "v", args.grid and "with --grid")
    if not 0.0 <= args.tol < math.inf:
        raise SpecError(f"--tol must be finite and >= 0, got {args.tol!r}")
    from .invariants import eight_invariants  # the invariant table's records
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), (v0, v1))
    s = gen.surface
    n_u, n_v = _grid_counts(args, ustep, vstep, (u0, u1), (v0, v1))
    _check_grid(n_u, n_v, "rows")
    vs = sample_grid(s.directrix.domain, n_v)
    cols, rvs = [directrix_point(s.directrix, v) for v in vs], [repr(v) for v in vs]
    blank = "," * (len(INVARIANT_COLUMNS) - 1)
    tol = args.tol
    rows = ["u,v," + ",".join(INVARIANT_COLUMNS) + ",case"]
    for u in sample_grid(gen.u_range, n_u):
        p = profile_point(s.profile, u)
        ru = repr(u)
        # gamma1, gamma2 = -gamma1, K and varkappa = 0 depend on u alone
        gammas, K = f"{p.gamma1!r},{-p.gamma1!r}", repr(p.K)
        for rv, r in zip(rvs, eight_invariants(p, cols, tol)):
            if type(r) is PointCase:
                rows.append(f"{ru},{rv},{blank},{r.value}")
            else:
                # nu1 = nu2 and H_norm = |nu|: one text for the three cells
                nu = repr(r.nu1)
                rows.append(f"{ru},{rv},{gammas},{nu},{nu},{r.lam!r},{r.mu!r},"
                            f"{r.beta1!r},{r.beta2!r},{K},{r.k!r},0.0,"
                            f"{nu.lstrip('-')},{r.epsilon!r},general")
    _write(args.out, "\n".join(rows))
    return _truncation_code(gen, v1)


def cmd_verify(args) -> int:
    spec, phi_text = parse_family_spec(args.spec)
    unread = "by verify, which samples --grid points or 50"
    u0, u1, ustep = _parse_range(args.u, "u", unread)
    v0, v1, vstep = _parse_range(args.v, "v", unread)
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), (v0, v1))
    from .verification import verify_generated  # only verify runs the suite
    n_pts = 50
    if args.grid:
        nu, nv = _grid_counts(args, ustep, vstep, (u0, u1), (v0, v1))
        n_pts = min(nu * nv, 100)
    report = verify_generated(gen, n_pts)
    for line in report.lines():
        print(line)
    if args.out:
        import json  # the report is written only with --out
        payload = report.to_dict()
        payload["spec"] = _spec_dict(spec, phi_text)
        payload["realized_range"] = list(gen.u_range)
        payload["realized_v_range"] = list(gen.surface.directrix.domain)
        _write(args.out, json.dumps(payload, indent=2))
    return _truncation_code(gen, v1) if report.passed else 1


def cmd_mesh(args) -> int:
    if args.projection not in MESH_PROJECTIONS:
        raise SpecError(f"unknown mesh projection {args.projection!r}; "
                        f"choose from {MESH_PROJECTIONS}")
    drop_e4 = args.projection == "drop-e4"
    spec, phi_text = parse_family_spec(args.spec)
    u0, u1, ustep = _parse_range(args.u, "u", args.grid and "with --grid")
    v0, v1, vstep = _parse_range(args.v, "v", args.grid and "with --grid")
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), (v0, v1))
    s = gen.surface
    nu, nv = _grid_counts(args, ustep, vstep, (u0, u1), (v0, v1))
    _check_grid(nu, nv, "vertices")
    wanted = [f for f in (args.fields.split(",") if args.fields else []) if f]
    for i, f in enumerate(wanted):
        if f not in MESH_FIELDS:
            raise SpecError(f"unknown mesh field {f!r}; choose from {MESH_FIELDS}")
        if f in wanted[:i]:
            raise SpecError(f"mesh field {f!r} is given more than once")
    if wanted:
        from .invariants import eight_invariants  # the records behind --fields
    cols = [directrix_point(s.directrix, v)
            for v in sample_grid(s.directrix.domain, nv)]
    vertices = []
    fields = {f: [] for f in wanted}
    # each field's column and the InvariantRecord attribute it reads
    columns = [(fields[f], _record_attr(f)) for f in wanted]
    for u in sample_grid(gen.u_range, nu):
        g, p = g_from_f(s.profile, u), profile_point(s.profile, u)
        # per vertex its record, or its case where the record is undefined
        # (every field is null there); without --fields only the case rule,
        # for its errors
        row = eight_invariants(p, cols) if wanted else classify_row(p, cols)
        for c, r in zip(cols, row):
            z = embed(p, c, g)
            vertices.append([z.c1, z.c2, z.c3] if drop_e4 else [z.c1, z.c2, z.c3, z.c4])
            for column, attr in columns:
                column.append(None if type(r) is PointCase else getattr(r, attr))
    payload = {
        "spec": _spec_dict(spec, phi_text),
        "realized_range": list(gen.u_range),
        "grid": [nu, nv],
        "projection": args.projection,
        "vertices": vertices,
        "fields": fields,
    }
    import json  # the mesh file
    _write(args.out, json.dumps(payload))
    return _truncation_code(gen, v1)


def _truncation_code(gen, v_end):
    """2 when the profile was truncated or the directrix ends before v_end."""
    return 2 if gen.truncated or gen.surface.directrix.domain[1] < v_end else 0


def _record_attr(column):
    """The InvariantRecord field behind an output column name."""
    return "lam" if column == "lambda" else column


_COMMANDS = {"family": cmd_family, "invariants": cmd_invariants,
             "verify": cmd_verify, "mesh": cmd_mesh}
# each command's flags, flag -> default or _REQUIRED: the five common ones
# first, in the order of the usage line
_REQUIRED = object()
_COMMON = {"--spec": _REQUIRED, "--f0": None, "--u": _REQUIRED, "--v": _REQUIRED,
           "--out": _REQUIRED}
_FLAGS = {
    "family": {**_COMMON, "--v": None},
    "invariants": {**_COMMON, "--grid": None, "--tol": CLASSIFY_TOL},
    "verify": {**_COMMON, "--out": None, "--grid": None},
    "mesh": {**_COMMON, "--grid": None, "--fields": None, "--projection": "none"},
}
_FLOATS = ("--f0", "--tol")   # float(): nan and inf reach the commands


def _exit(name, error=None):
    """Exit 0 after help: the usage line of command `name` (None: of
    meridian4) and the module docstring. Exit 1 after a usage error, with
    the usage line and one error line on stderr: 2 means truncated."""
    prog = "meridian4" if name is None else f"meridian4 {name}"
    words = [f"usage: {prog}" + (" {" + ",".join(_FLAGS) + "} ..." if name is None else "")]
    for flag, default in _FLAGS.get(name, {}).items():
        word = f"{flag} {flag[2:].upper().replace('-', '_')}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    if error is None:
        print(" ".join(words), __doc__, sep="\n\n", end="")
    else:
        print(" ".join(words), f"{prog}: error: {error}", sep="\n", file=sys.stderr)
    raise SystemExit(0 if error is None else 1)


def _parse_args(argv):
    """(command function, args) of argv, which reads `--flag value` and
    `--flag=value`; a value may start with '-' but not with '--'."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        _exit(None)
    if name not in _FLAGS:
        what = "missing command" if name is None else f"unknown command {name!r}"
        _exit(None, f"{what}; choose from {', '.join(_FLAGS)}")
    flags, given, tokens = _FLAGS[name], {}, iter(argv[1:])
    for tok in tokens:
        if tok in ("-h", "--help"):
            _exit(name)
        flag, eq, value = tok.partition("=")
        if flag not in flags:
            _exit(name, f"unknown flag {flag!r}" if tok[:2] == "--"
                  else f"expected a flag, found {tok!r}")
        if flag in given:
            _exit(name, f"flag {flag} is given more than once")
        if not eq:
            value = next(tokens, "--")   # the end of argv is no value either
            if value[:2] == "--":
                _exit(name, f"flag {flag} needs a value")
        if flag in _FLOATS:
            try:
                value = float(value)
            except ValueError:
                _exit(name, f"flag {flag} needs a number, got {value!r}")
        given[flag] = value
    missing = [f for f, default in flags.items() if default is _REQUIRED and f not in given]
    if missing:
        _exit(name, f"missing {', '.join(missing)}")
    return _COMMANDS[name], SimpleNamespace(**{
        f[2:].replace("-", "_"): given.get(f, default) for f, default in flags.items()})


def main(argv=None) -> int:
    fn, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return fn(args)
    except MeridianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
