"""Command-line harness: file-based access to every operation.

Exit codes: 0 on success, 2 when an input fails validation, 3 on numerical
failure, including a LAPACK routine that does not converge or an allocation
that runs out of memory; stderr carries the error taxonomy name.  All
outputs are deterministic for fixed inputs (and fixed --seed where
randomness is requested), using canonical JSON and 17-significant-digit CSV.
"""

from __future__ import annotations

import functools
import os
import sys

import click
import numpy as np

from . import config
from .actions import alpha, group_element, phi
from .errors import NumericalError, TraceError, ValidationError
from .gns import gns_construct
from .isotropy import isotropy_report
from .orbits import (
    connect_alpha,
    connect_phi,
    convex_recombine,
    make_spectrum_generator,
    truncation_sweep,
)
from .serialize import (
    _decode_matrix,
    complex_pairs,
    dumps_canonical,
    flow_csv,
    load_matrix_file,
    matrix_to_jsonable,
    read_json,
    truncation_csv,
)
from .states import (
    PositiveFunctional,
    StateDensity,
    classify_orbit,
    validate_positive,
    validate_state,
)
from .tangent import fd_tangent_check, flow, tangent_alpha, tangent_phi


def _fail(exc: Exception, code: int):
    click.echo(f"{type(exc).__name__}: {exc}", err=True)
    sys.exit(code)


def handle_errors(fn):
    """Map the error taxonomy onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            _fail(exc, 2)
        except NumericalError as exc:
            _fail(exc, 3)
        except np.linalg.LinAlgError as exc:
            _fail(NumericalError(str(exc)), 3)
        except MemoryError as exc:
            _fail(NumericalError(f"out of memory: {exc}" if str(exc) else "out of memory"), 3)

    return wrapper


def _emit(ctx, chunks) -> None:
    """Write one text, or an iterable of text chunks as they come, to --out or
    stdout.  An output that cannot be opened, written, flushed or closed is a
    ValidationError, like any other unusable input."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    out = ctx.obj.get("out")
    try:
        if out is None:
            for chunk in chunks:
                click.echo(chunk, nl=False)
            return
        with open(out, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        target = "stdout" if out is None else f"--out {out}"
        raise ValidationError(f"cannot write {target}: {exc.strerror or exc}") from None


def _require_format(ctx, allowed: tuple, default: str) -> str:
    fmt = ctx.obj.get("format") or default
    if fmt not in allowed:
        raise ValidationError(f"--format {fmt} unsupported here (allowed: {', '.join(allowed)})")
    return fmt


def _load(path) -> tuple[np.ndarray, str, PositiveFunctional | None]:
    """(matrix, kind, functional) of a matrix file; a state or positive file
    comes with its validated functional, so it is validated once."""
    return _decode_matrix(read_json(path))


def _load_state(path) -> StateDensity:
    m, kind, functional = _load(path)
    return functional if kind == "state" else validate_state(m)


def _load_functional(path) -> tuple[PositiveFunctional, str]:
    """Load as a state when possible, falling back to a positive functional."""
    m, kind, functional = _load(path)
    if functional is not None:
        return functional, kind
    try:
        return validate_state(m), "state"
    except TraceError:
        return validate_positive(m), "positive"


@click.group()
@click.option("--tol", metavar="FLOAT", default=None,
              help="Finite positive tolerance multiplier (default: STATEGEOM_TOL or 1.0).")
@click.option("--seed", type=int, default=None,
              help="Seed for commands with randomized configuration.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output to this file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None,
              help="Output format where both are supported.")
@click.pass_context
def main(ctx, tol, seed, out, fmt):
    """Numerical toolkit for group actions on density operators."""
    source = "--tol" if tol is not None else "STATEGEOM_TOL"
    tol = tol if tol is not None else os.environ.get("STATEGEOM_TOL") or "1"
    try:
        config.set_tolerance_scale(float(tol))
    except ValueError:
        _fail(ValidationError(f"{source} must be a finite positive number, got {tol!r}"), 2)
    ctx.obj = {"seed": seed, "out": out, "format": fmt}


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@handle_errors
def validate(ctx, file):
    """Validate a matrix file as a state or positive functional."""
    _require_format(ctx, ("json",), "json")
    functional, kind = _load_functional(file)
    orbit = classify_orbit(functional)
    report = {
        "valid": True,
        "kind": kind,
        "n": functional.n,
        "rank": orbit.rank,
        "corank": orbit.corank,
        "trace": functional.trace,
        "min_eigenvalue": float(np.linalg.eigvalsh(functional.matrix)[0]),
        "orbit_class": orbit.tag,
    }
    _emit(ctx, dumps_canonical(report))


@main.command()
@click.argument("action", type=click.Choice(["alpha", "phi"]))
@click.argument("g_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@handle_errors
def act(ctx, action, g_file, state_file):
    """Apply a group element to a functional (alpha) or state (phi)."""
    _require_format(ctx, ("json",), "json")
    g, _ = load_matrix_file(g_file)
    element = group_element(g)
    if action == "phi":
        result = phi(element, _load_state(state_file))
        _emit(ctx, dumps_canonical(matrix_to_jsonable(result.matrix, "state")))
        return
    m, kind, functional = _load(state_file)
    if functional is None:
        # alpha acts on all self-adjoint functionals, positive or not
        moved = alpha(element, m)
        _emit(ctx, dumps_canonical(matrix_to_jsonable(moved, "operator")))
        return
    moved = alpha(element, functional)
    _emit(ctx, dumps_canonical(matrix_to_jsonable(moved.matrix, "positive")))


@main.command()
@click.argument("action", type=click.Choice(["alpha", "phi"]))
@click.argument("file0", type=click.Path(exists=True, dir_okay=False))
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@handle_errors
def connect(ctx, action, file0, file1):
    """Certificate for an explicit element mapping FILE0 onto FILE1."""
    _require_format(ctx, ("json",), "json")
    if action == "phi":
        cert = connect_phi(_load_state(file0), _load_state(file1))
    else:
        cert = connect_alpha(_load_functional(file0)[0], _load_functional(file1)[0])
    payload = {
        "action": action,
        "C": cert.bound_constant,
        "norm_bound": cert.norm_bound,
        "opnorm": cert.g.sigma_max,
        "achieved_residual": cert.achieved_residual,
        "g": matrix_to_jsonable(cert.g.matrix, "operator"),
    }
    _emit(ctx, dumps_canonical(payload))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--action", type=click.Choice(["alpha", "phi", "both"]), default="both")
@click.pass_context
@handle_errors
def isotropy(ctx, file, action):
    """Isotropy dimensions and membership residuals at a base point."""
    _require_format(ctx, ("json",), "json")
    functional, _ = _load_functional(file)
    report = isotropy_report(functional)
    payload = {
        "action": action,
        "ambient_dim": report.ambient_dim,
        "support_dim": report.support_dim,
        "dim_alpha": report.dim_alpha,
        "dim_phi": report.dim_phi,
        "dim_complement": report.dim_complement,
        "max_residual": report.max_residual,
    }
    if action in ("alpha", "both"):
        payload["orbit_dim_alpha"] = report.ambient_dim - report.dim_alpha
    if action in ("phi", "both"):
        payload["orbit_dim_phi"] = report.ambient_dim - report.dim_phi
    _emit(ctx, dumps_canonical(payload))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("generator_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--action", type=click.Choice(["alpha", "phi"]), default="phi")
@click.option("--fd-step", type=float, default=config.FD_STEP, show_default=True,
              help="Central-difference step for the phi check.")
@click.pass_context
@handle_errors
def tangent(ctx, file, generator_file, action, fd_step):
    """Tangent vector along a generator, with a finite-difference report."""
    _require_format(ctx, ("json",), "json")
    gen, _ = load_matrix_file(generator_file)
    if action == "phi":
        rho = _load_state(file)
        vec = tangent_phi(rho, gen)
        payload = {
            "action": action,
            "tangent": matrix_to_jsonable(vec.value, "operator"),
            "trace": float(np.trace(vec.value).real),
            "fd_check": {"h": fd_step, "relative_error": fd_tangent_check(rho, gen, fd_step)},
        }
    else:
        functional, _ = _load_functional(file)
        vec = tangent_alpha(functional, gen)
        payload = {
            "action": action,
            "tangent": matrix_to_jsonable(vec.value, "operator"),
            "trace": float(np.trace(vec.value).real),
        }
    _emit(ctx, dumps_canonical(payload))


@main.command(name="flow")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("generator_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t0", type=float, required=True)
@click.option("--t1", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.pass_context
@handle_errors
def flow_cmd(ctx, file, generator_file, t0, t1, steps):
    """Trajectory of the normalized flow rho_t = phi(exp(t a), rho)."""
    fmt = _require_format(ctx, ("csv", "json"), "csv")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValidationError(f"--t0 and --t1 must be finite, got {t0} and {t1}")
    rho = _load_state(file)
    gen, _ = load_matrix_file(generator_file)
    grid = np.linspace(t0, t1, steps)
    states = flow(rho, gen, grid)
    if fmt == "csv":
        _emit(ctx, flow_csv(grid, states))
    else:
        payload = {
            "t": grid.tolist(),
            "states": [matrix_to_jsonable(s.matrix, "state") for s in states],
        }
        _emit(ctx, dumps_canonical(payload))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@handle_errors
def gns(ctx, file):
    """GNS data of a state: dimension, represented basis, cyclic vector."""
    _require_format(ctx, ("json",), "json")
    triple = gns_construct(_load_state(file))
    entries = triple.n ** 2 * triple.dim ** 2
    if entries > config.GNS_MAX_ENTRIES:
        raise ValidationError(
            f"gns payload of {triple.n ** 2} matrices of dimension {triple.dim} has {entries} "
            f"entries, above the limit of {config.GNS_MAX_ENTRIES}")
    _emit(ctx, _gns_chunks(triple))


def _gns_chunks(triple):
    """The gns payload {"n", "dim", "cyclic", "rep": [...]} as text chunks: the
    header, then one {"unit", "entries"} object per matrix unit, each encoded
    and dropped before the next is built."""
    head = dumps_canonical({"n": triple.n, "dim": triple.dim,
                            "cyclic": complex_pairs(triple.cyclic)})
    yield head[:-2] + ',"rep":['  # reopen the object closed by "}\n"
    for k, mat in enumerate(triple.rep_matrices()):
        unit = {"unit": list(divmod(k, triple.n)), "entries": complex_pairs(mat)}
        yield ("," if k else "") + dumps_canonical(unit)[:-1]
    yield "]}\n"


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@handle_errors
def truncate(ctx, config_file):
    """Truncation sweep over a list of dimensions (CSV by default)."""
    fmt = _require_format(ctx, ("csv", "json"), "csv")
    cfg = read_json(config_file)
    if not isinstance(cfg, dict):
        raise ValidationError("truncation config must be a JSON object")
    for key in ("dims", "spec0", "spec1"):
        if key not in cfg:
            raise ValidationError(f"truncation config is missing {key!r}")
    gen0 = make_spectrum_generator(cfg["spec0"])
    gen1 = make_spectrum_generator(cfg["spec1"])
    rng = None
    if "dirichlet" in (gen0.kind, gen1.kind):
        seed = ctx.obj.get("seed")
        if seed is None:
            raise ValidationError("randomized spectra require an explicit --seed")
        rng = np.random.default_rng(seed)
    report = truncation_sweep(
        gen0, gen1, cfg["dims"],
        ceiling=cfg.get("ceiling", 1e6),
        action=cfg.get("action", "phi"),
        rng=rng,
    )
    if fmt == "csv":
        _emit(ctx, truncation_csv(report))
    else:
        payload = {
            "dims": list(report.dims),
            "C": list(report.bound_constants),
            "opnorm": list(report.opnorms),
            "residual": list(report.residuals),
            "flag": list(report.flags),
            "orbit_class": list(report.orbit_class_tags),
            "ceiling": report.ceiling,
            "diverged": report.diverged,
        }
        _emit(ctx, dumps_canonical(payload))


@main.command()
@click.argument("tau_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("g1_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("g2_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("lam", type=float, metavar="LAMBDA")
@click.pass_context
@handle_errors
def recombine(ctx, tau_file, g1_file, g2_file, lam):
    """Square-root recombiner realizing a mixture on the tracial orbit."""
    _require_format(ctx, ("json",), "json")
    tau = _load_state(tau_file)
    g1, _ = load_matrix_file(g1_file)
    g2, _ = load_matrix_file(g2_file)
    recombiner, residual = convex_recombine(tau, g1, g2, lam)
    mixture = phi(recombiner, tau)
    payload = {
        "lambda": lam,
        "residual": residual,
        "recombiner": matrix_to_jsonable(recombiner.matrix, "operator"),
        "mixture": matrix_to_jsonable(mixture.matrix, "state"),
    }
    _emit(ctx, dumps_canonical(payload))


if __name__ == "__main__":
    main()
