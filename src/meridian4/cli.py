"""Command-line front end.

Subcommands:
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

Exit codes: 0 success, 1 spec/parse error or failed verification, 2
truncated generation (the profile, or for invariants, verify and mesh also
the directrix, ends early).
All numeric output uses shortest round-trip float formatting; outputs carry
no timestamps, so identical invocations are byte-identical.
"""

import argparse
import json
import math
import sys

from .errors import MeridianError, SpecMismatchError
from .expressions import compile_expression
from .families import (Chen, ConstantGauss, ConstantK, ConstantMean,
                       GeneratedSurface, ParallelA, ParallelB,
                       constant_kappa_directrix, generate)
from .invariants import DEFAULT_ORACLE_STEP, eight_invariants
from .profile import Directrix, ProfileCurve, g_from_f
from .surface import MeridianSurface, PointCase, embed, point_data
from .verification import verify_generated

INVARIANT_COLUMNS = ["gamma1", "gamma2", "nu1", "nu2", "lambda", "mu",
                     "beta1", "beta2", "K", "k", "varkappa", "H_norm",
                     "epsilon"]
MESH_FIELDS = ("K", "H_norm", "k", "lambda", "beta1", "beta2")


def _fmt(x) -> str:
    """Shortest round-trip decimal form (Python's repr guarantees <= 17
    significant digits)."""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


class SpecError(MeridianError):
    pass


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecError(f"expected key=value, found {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def _real(kv, key, default=None):
    if key not in kv:
        if default is not None:
            return default
        raise SpecError(f"missing parameter {key!r}")
    try:
        return float(kv[key])
    except ValueError:
        raise SpecError(f"parameter {key!r} is not a number: {kv[key]!r}")


def _sign(kv, key, default=None):
    raw = kv.get(key)
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

    Raises SpecError with a one-line diagnostic naming the offending token."""
    tokens = text.split()
    if not tokens:
        raise SpecError("empty spec")
    name, kv = tokens[0], _parse_kv(tokens[1:])
    phi = kv.pop("phi", None)
    try:
        if name == "constant-gauss":
            K = _real(kv, "K")
            if K == 0:
                raise SpecError("K must be nonzero")
            return ConstantGauss(K=K, alpha=_real(kv, "alpha"),
                                 beta=_real(kv, "beta")), phi or "1"
        if name == "constant-mean":
            return ConstantMean(a=_real(kv, "a"), b=_real(kv, "b"),
                                C=_real(kv, "C", 0.0), epsilon=_sign(kv, "eps"),
                                branch=_sign(kv, "branch")), phi
        if name == "constant-k":
            return ConstantK(a=_real(kv, "a"), b=_real(kv, "b"),
                             c=_real(kv, "c", 0.0),
                             branch=_sign(kv, "branch")), phi
        if name == "chen":
            return Chen(b=_real(kv, "b"), c=_real(kv, "c"),
                        exponent_branch=_sign(kv, "branch")), phi
        if name == "parallel-a":
            return ParallelA(c=_real(kv, "c"), d=_real(kv, "d"),
                             a=_real(kv, "a", 0.0),
                             sign=_sign(kv, "sign", 1)), phi or "1"
        if name == "parallel-b":
            return ParallelB(a=_real(kv, "a"), c=_real(kv, "c", 0.0),
                             b=_real(kv, "b")), phi
        if name == "direct":
            if "f" not in kv:
                raise SpecError("direct spec needs f=<expr>")
            return {"kind": "direct", "f": kv["f"],
                    "g0": _real(kv, "g0", 0.0)}, phi or "1"
    except SpecMismatchError as exc:
        raise SpecError(str(exc))
    raise SpecError(f"unknown family {name!r}")


def _parse_range(text, what):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise SpecError(f"--{what} must be start:end[:step], got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise SpecError(f"--{what} has a non-numeric part in {text!r}")
    if vals[1] <= vals[0]:
        raise SpecError(f"--{what} range is empty: {text!r}")
    step = vals[2] if len(parts) == 3 else None
    if step is not None and step <= 0:
        raise SpecError(f"--{what} step must be positive: {text!r}")
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
    nu = int(round((u_range[1] - u_range[0]) / u_step)) + 1 if u_step else 25
    nv = int(round((v_range[1] - v_range[0]) / v_step)) + 1 if v_step else 25
    return nu, nv


def _spec_dict(spec, phi_text):
    if isinstance(spec, dict):
        d = dict(spec)
    else:
        d = {"family": type(spec).__name__}
        for key, val in vars(spec).items():
            d[key] = val
    if phi_text:
        d["phi"] = phi_text
    return d


def build_surface(spec, phi_text, f0, u_range, v_range):
    """Realize the spec as a GeneratedSurface (direct specs get wrapped)."""
    if isinstance(spec, dict):
        profile = ProfileCurve(compile_expression(spec["f"], "u"), u_range,
                               spec["g0"])
        directrix = Directrix(compile_expression(phi_text, "v"), v_range)
        surf = MeridianSurface(profile, directrix)
        return GeneratedSurface(surf, None, "expression", u_range, False)
    b = spec.kappa_constant
    if b is not None:
        directrix = constant_kappa_directrix(b, v_range)
    else:
        directrix = Directrix(compile_expression(phi_text or "1", "v"), v_range)
    return generate(spec, f0, u_range, directrix)


def _samples(lo, hi, n):
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _json_path(out):
    if out.endswith(".csv"):
        return out[:-4] + ".json"
    return out + ".json"


def cmd_family(args) -> int:
    spec, phi_text = parse_family_spec(args.spec)
    if isinstance(spec, dict):
        raise SpecError("family command needs a family spec, not 'direct'")
    u0, u1, ustep = _parse_range(args.u, "u")
    v_range = (0.0, 2.0 * math.pi)
    if args.v:
        vv = _parse_range(args.v, "v")
        v_range = (vv[0], vv[1])
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), v_range)
    profile = gen.surface.profile
    n = int(round((gen.u_range[1] - gen.u_range[0]) / ustep)) + 1 if ustep else 50
    rows = ["u,f,f_prime,f_double_prime,g"]
    for u in _samples(gen.u_range[0], gen.u_range[1], n):
        fj = profile.f_jet(u)
        rows.append(",".join(_fmt(x) for x in
                             (u, fj.f, fj.d1, fj.d2, g_from_f(profile, u))))
    echo = {"spec": _spec_dict(spec, phi_text),
            "realized_range": list(gen.u_range),
            "truncated": gen.truncated,
            "f_source": gen.f_source}
    _write(args.out, "\n".join(rows) + "\n")
    _write(_json_path(args.out), json.dumps(echo, indent=2) + "\n")
    return 2 if gen.truncated else 0


def cmd_invariants(args) -> int:
    spec, phi_text = parse_family_spec(args.spec)
    u0, u1, ustep = _parse_range(args.u, "u")
    v0, v1, vstep = _parse_range(args.v, "v")
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), (v0, v1))
    s = gen.surface
    nu, nv = _grid_counts(args, ustep, vstep, (u0, u1), (v0, v1))
    uu0, uu1 = gen.u_range
    vv0, vv1 = s.directrix.domain
    rows = ["u,v," + ",".join(INVARIANT_COLUMNS) + ",case"]
    attrs = [_record_attr(c) for c in INVARIANT_COLUMNS]
    for u in _samples(uu0, uu1, nu):
        for v in _samples(vv0, vv1, nv):
            d = point_data(s, u, v)
            case = d.classify(args.tol)
            if case is PointCase.GENERAL:
                rec = eight_invariants(s, u, v, d)
                vals = [_fmt(getattr(rec, a)) for a in attrs]
            else:
                vals = [""] * len(INVARIANT_COLUMNS)
            rows.append(",".join([_fmt(u), _fmt(v)] + vals + [case.value]))
    _write(args.out, "\n".join(rows) + "\n")
    return _truncation_code(gen, v1)


def cmd_verify(args) -> int:
    spec, phi_text = parse_family_spec(args.spec)
    u0, u1, ustep = _parse_range(args.u, "u")
    v0, v1, vstep = _parse_range(args.v, "v")
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), (v0, v1))
    n_pts = 50
    if args.grid:
        nu, nv = _grid_counts(args, ustep, vstep, (u0, u1), (v0, v1))
        n_pts = min(nu * nv, 100)
    report = verify_generated(gen, n_pts, args.oracle_step)
    for line in report.lines():
        print(line)
    if args.out:
        payload = report.to_dict()
        payload["spec"] = _spec_dict(spec, phi_text)
        payload["realized_range"] = list(gen.u_range)
        payload["realized_v_range"] = list(gen.surface.directrix.domain)
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    return _truncation_code(gen, v1) if report.passed else 1


def cmd_mesh(args) -> int:
    spec, phi_text = parse_family_spec(args.spec)
    u0, u1, ustep = _parse_range(args.u, "u")
    v0, v1, vstep = _parse_range(args.v, "v")
    gen = build_surface(spec, phi_text, args.f0, (u0, u1), (v0, v1))
    s = gen.surface
    nu, nv = _grid_counts(args, ustep, vstep, (u0, u1), (v0, v1))
    wanted = [f for f in (args.fields.split(",") if args.fields else []) if f]
    for f in wanted:
        if f not in MESH_FIELDS:
            raise SpecError(f"unknown mesh field {f!r}; choose from {MESH_FIELDS}")
    uu0, uu1 = gen.u_range
    vv0, vv1 = s.directrix.domain
    vertices = []
    fields = {f: [] for f in wanted}
    for u in _samples(uu0, uu1, nu):
        for v in _samples(vv0, vv1, nv):
            z = embed(s, u, v)
            if args.projection == "drop-e4":
                vertices.append([z.c1, z.c2, z.c3])
            else:
                vertices.append([z.c1, z.c2, z.c3, z.c4])
            if wanted:
                # one invariant record per vertex; every field is null where
                # the record is undefined (flat or marginally trapped points)
                d = point_data(s, u, v)
                rec = None
                if d.case is PointCase.GENERAL:
                    rec = eight_invariants(s, u, v, d)
                for f in wanted:
                    value = None if rec is None else getattr(rec, _record_attr(f))
                    fields[f].append(value)
    payload = {
        "spec": _spec_dict(spec, phi_text),
        "realized_range": list(gen.u_range),
        "grid": [nu, nv],
        "projection": args.projection,
        "vertices": vertices,
        "fields": fields,
    }
    _write(args.out, json.dumps(payload) + "\n")
    return _truncation_code(gen, v1)


def _truncation_code(gen, v_end):
    """2 when the profile was truncated or the directrix ends before v_end."""
    return 2 if gen.truncated or gen.surface.directrix.domain[1] < v_end else 0


def _record_attr(column):
    """The InvariantRecord field behind an output column name."""
    return "lam" if column == "lambda" else column


def _build_parser():
    p = argparse.ArgumentParser(prog="meridian4", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("family", cmd_family), ("invariants", cmd_invariants),
                     ("verify", cmd_verify), ("mesh", cmd_mesh)):
        sp = sub.add_parser(name)
        sp.add_argument("--spec", required=True)
        sp.add_argument("--f0", type=float, default=None)
        sp.add_argument("--u", required=True, help="start:end[:step]")
        sp.add_argument("--v", required=(name != "family"),
                        help="start:end[:step]")
        sp.add_argument("--out", default=None)
        if name != "family":
            sp.add_argument("--grid", default=None, help="NUxNV")
        if name == "invariants":
            sp.add_argument("--tol", type=float, default=1e-9)
        if name == "verify":
            sp.add_argument("--oracle-step", type=float,
                            default=DEFAULT_ORACLE_STEP)
        if name == "mesh":
            sp.add_argument("--fields", default=None)
            sp.add_argument("--projection", choices=("none", "drop-e4"),
                            default="none")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "verify" and args.out is None:
        print("error: --out is required", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except MeridianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
