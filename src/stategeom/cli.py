"""Command-line harness: file-based access to every operation.

Each subcommand body returns its payload; ``command`` registers it and owns
--format and the output, ``_Main.main`` maps every error onto an exit code, and
``serialize`` owns every encoding.  A body imports the compute layers it runs
(``actions``, ``orbits``, ``tangent``, ``isotropy``, ``gns``) itself, so a call
loads only its part of the package.  Exit codes: 0 on success, 2 when an input
or a command line fails validation, 3 on numerical failure, including a LAPACK
routine that does not converge or an allocation that runs out of memory;
stderr carries one line, led by the error taxonomy name.  On one machine and
BLAS build, all outputs are deterministic for fixed inputs (and fixed --seed
where randomness is requested), using canonical JSON and 17-significant-digit
CSV; numpy's OpenBLAS picks its kernels by CPU as it loads, and another kernel
(OPENBLAS_CORETYPE=Haswell on an AVX-512 machine) moves the last bits of
outputs that pass through BLAS or LAPACK.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import inspect
import math
import os
import sys
from collections.abc import Mapping

# One BLAS thread unless the user set a count: with OpenBLAS's default threads a
# numpy eigh, eigvalsh or matrix product at n = 32-64 stalls in steps of about
# 16 ms.  OpenBLAS reads the variable when numpy loads, so a process that loaded
# numpy before the CLI keeps its environment as it is.
if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import click
import numpy as np

from . import config
from .errors import NumericalError, TraceError, ValidationError
from .linalg import in_range
from .serialize import (
    dumps_canonical,
    flow_csv,
    gns_chunks,
    load_matrix_file,
    matrix_to_jsonable,
    read_json,
    truncation_csv,
    truncation_json,
)
from .states import classify_orbit, min_eigenvalue, validate_positive, validate_state


def _fail(exc: Exception, code: int):
    click.echo(f"{type(exc).__name__}: {exc}", err=True)
    sys.exit(code)


def _emit(out, chunks) -> None:
    """Write one text, or an iterable of text chunks as they come, to ``out``
    (the --out path) or stdout when it is None.  An output that cannot be
    opened, written, flushed or closed is a ValidationError, like any other
    unusable input."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    try:
        if out is None:
            for chunk in chunks:
                click.echo(chunk, nl=False)
            return
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        target = "stdout" if out is None else f"--out {out}"
        raise ValidationError(f"cannot write {target}: {exc.strerror or exc}") from None


class _Main(click.Group):
    """The command group, whose ``main`` is the one place an error becomes an
    exit code."""

    def main(self, *args, **extra):
        """Run the CLI.  A usage error (a missing or unparsable argument or
        option, a FILE that does not exist) exits 2 as one ValidationError
        line, as does the error taxonomy's ValidationError; NumericalError, a
        LAPACK routine that does not converge and an allocation that runs out
        of memory exit 3 with one NumericalError line.  A bare invocation
        prints the help.  The call runs in a copy of the caller's context, so
        its --tol leaves the caller's tolerance scale as it was."""
        try:
            return contextvars.copy_context().run(
                super().main, *args, **{**extra, "standalone_mode": False})
        except click.exceptions.NoArgsIsHelpError as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except click.ClickException as exc:
            _fail(ValidationError(exc.format_message()), 2)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except ValidationError as exc:
            _fail(exc, 2)
        except NumericalError as exc:
            _fail(exc, 3)
        except np.linalg.LinAlgError as exc:
            _fail(NumericalError(str(exc)), 3)
        except MemoryError as exc:
            _fail(NumericalError(f"out of memory: {exc}" if str(exc) else "out of memory"), 3)


@click.group(cls=_Main)
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
        raise ValidationError(f"{source} must be a finite positive number, got {tol!r}") from None
    ctx.obj = {"seed": seed, "out": out, "format": fmt}


def command(*formats: str, **settings):
    """Register a subcommand whose body returns its payload.

    ``formats`` are the encodings the command writes, the first being the
    default; any other --format exits 2.  A body that takes ``fmt`` gets the
    resolved format and one that takes ``seed`` gets --seed.  A returned
    mapping is written as canonical JSON, text or text chunks as they are, to
    --out or stdout.  Errors reach ``_Main.main``.
    """
    def register(body):
        extras = inspect.signature(body).parameters.keys() & {"fmt", "seed"}

        @functools.wraps(body)
        def run(**params):
            obj = click.get_current_context().obj
            fmt = obj["format"] or formats[0]
            if fmt not in formats:
                raise ValidationError(
                    f"--format {fmt} unsupported here (allowed: {', '.join(formats)})")
            given = {"fmt": fmt, "seed": obj["seed"]}
            result = body(**params, **{key: given[key] for key in extras})
            _emit(obj["out"], dumps_canonical(result) if isinstance(result, Mapping) else result)

        return main.command(**settings)(run)

    return register


@command("json")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate(file):
    """Validate a matrix file as a state or positive functional."""
    value, kind = load_matrix_file(file)
    functional = validate_positive(value)
    if kind == "operator":  # a state when its trace is one
        try:
            functional, kind = validate_state(functional), "state"
        except TraceError:
            kind = "positive"
    orbit = classify_orbit(functional)
    return {
        "valid": True,
        "kind": kind,
        "n": functional.n,
        "rank": orbit.rank,
        "corank": orbit.corank,
        "trace": functional.trace,
        # of the Hermitian part that validation tested, not of one triangle; read
        # from the spectrum that classify_orbit decomposed
        "min_eigenvalue": min_eigenvalue(functional),
        "orbit_class": orbit.tag,
    }


@command("json")
@click.argument("action", type=click.Choice(["alpha", "phi"]))
@click.argument("g_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
def act(action, g_file, state_file):
    """Apply a group element to a functional (alpha) or state (phi)."""
    from .actions import alpha, group_element, phi

    element = group_element(load_matrix_file(g_file)[0])
    value, kind = load_matrix_file(state_file)
    if action == "phi":
        return matrix_to_jsonable(phi(element, value), "state")
    # alpha acts on all self-adjoint functionals, positive or not
    return matrix_to_jsonable(alpha(element, value),
                              "operator" if kind == "operator" else "positive")


@command("json")
@click.argument("action", type=click.Choice(["alpha", "phi"]))
@click.argument("file0", type=click.Path(exists=True, dir_okay=False))
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
def connect(action, file0, file1):
    """Certificate for an explicit element mapping FILE0 onto FILE1."""
    from .orbits import connect_alpha, connect_phi

    validate, connect_ = ((validate_state, connect_phi) if action == "phi"
                          else (validate_positive, connect_alpha))
    # FILE0 is validated before FILE1 is read, so a bad FILE0 is the one named
    cert = connect_(validate(load_matrix_file(file0)[0]), load_matrix_file(file1)[0])
    return {
        "action": action,
        "C": cert.bound_constant,
        "norm_bound": cert.norm_bound,
        "opnorm": cert.g.sigma_max,
        "achieved_residual": cert.achieved_residual,
        "g": matrix_to_jsonable(cert.g.matrix, "operator"),
    }


@command("json")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--action", type=click.Choice(["alpha", "phi", "both"]), default="both")
def isotropy(file, action):
    """Isotropy dimensions and membership residuals at a base point."""
    from .isotropy import isotropy_report

    report = isotropy_report(load_matrix_file(file)[0])
    payload = {"action": action, **dataclasses.asdict(report)}
    if action in ("alpha", "both"):
        payload["orbit_dim_alpha"] = report.ambient_dim - report.dim_alpha
    if action in ("phi", "both"):
        payload["orbit_dim_phi"] = report.ambient_dim - report.dim_phi
    return payload


@command("json")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("generator_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--action", type=click.Choice(["alpha", "phi"]), default="phi")
@click.option("--fd-step", type=float, default=config.FD_STEP, show_default=True,
              help="Central-difference step for the phi check.")
def tangent(file, generator_file, action, fd_step):
    """Tangent vector along a generator, with a finite-difference report."""
    from .tangent import fd_tangent_check, tangent_alpha, tangent_phi

    gen = load_matrix_file(generator_file)[0]
    rho = load_matrix_file(file)[0]
    if action == "phi":
        rho = validate_state(rho)  # once, for tangent_phi and fd_tangent_check
    vec = (tangent_phi if action == "phi" else tangent_alpha)(rho, gen)
    payload = {
        "action": action,
        "tangent": matrix_to_jsonable(vec.value, "operator"),
        "trace": in_range("trace", math.inf, lambda: float(np.trace(vec.value).real)),
    }
    if action == "phi":
        payload["fd_check"] = {"h": fd_step, "relative_error": fd_tangent_check(rho, vec, fd_step)}
    return payload


@command("csv", "json", name="flow")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("generator_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t0", type=float, required=True)
@click.option("--t1", type=float, required=True)
@click.option("--steps", type=int, required=True)
def flow_cmd(file, generator_file, t0, t1, steps, fmt):
    """Trajectory of the normalized flow rho_t = phi(exp(t a), rho)."""
    from .tangent import flow

    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if steps > config.MAX_FLOAT64S:  # np.linspace lays the grid out with np.arange
        raise ValidationError(
            f"steps must be <= {config.MAX_FLOAT64S}, the most points numpy can lay out in one "
            f"float64 array, got {steps}")
    if not np.isfinite(t1 - t0):  # np.linspace forms t1 - t0, even for one point
        raise ValidationError(f"--t0, --t1 and t1 - t0 must be finite, got {t0} and {t1}")
    rho = validate_state(load_matrix_file(file)[0])
    gen = load_matrix_file(generator_file)[0]
    grid = np.linspace(t0, t1, steps)
    states = flow(rho, gen, grid)
    if fmt == "csv":
        return flow_csv(grid, states)
    return {"t": grid.tolist(), "states": [matrix_to_jsonable(s.matrix, "state") for s in states]}


@command("json")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def gns(file):
    """GNS data of a state: dimension, represented basis, cyclic vector."""
    from .gns import gns_construct

    triple = gns_construct(load_matrix_file(file)[0])
    entries = triple.n ** 2 * triple.dim ** 2
    if entries > config.GNS_MAX_ENTRIES:
        raise ValidationError(
            f"gns payload of {triple.n ** 2} matrices of dimension {triple.dim} has {entries} "
            f"entries, above the limit of {config.GNS_MAX_ENTRIES}")
    return gns_chunks(triple)


@command("csv", "json")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
def truncate(config_file, fmt, seed):
    """Truncation sweep over a list of dimensions (CSV by default)."""
    from .orbits import make_spectrum_generator, truncation_sweep

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
        if seed is None:
            raise ValidationError("randomized spectra require an explicit --seed")
        if seed < 0:
            raise ValidationError(f"--seed must be a non-negative integer, got {seed}")
        rng = np.random.default_rng(seed)
    # the sweep's own defaults stand for the keys the config leaves out
    report = truncation_sweep(gen0, gen1, cfg["dims"], rng=rng,
                              **{key: cfg[key] for key in ("ceiling", "action") if key in cfg})
    return (truncation_csv if fmt == "csv" else truncation_json)(report)


@command("json")
@click.argument("tau_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("g1_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("g2_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("lam", type=float, metavar="LAMBDA")
def recombine(tau_file, g1_file, g2_file, lam):
    """Square-root recombiner realizing a mixture on the tracial orbit."""
    from .orbits import _recombine

    tau = validate_state(load_matrix_file(tau_file)[0])
    recombiner, mixture, residual = _recombine(tau, load_matrix_file(g1_file)[0],
                                               load_matrix_file(g2_file)[0], lam)
    return {
        "lambda": lam,
        "residual": residual,
        "recombiner": matrix_to_jsonable(recombiner.matrix, "operator"),
        "mixture": matrix_to_jsonable(mixture.matrix, "state"),
    }


if __name__ == "__main__":
    main()
