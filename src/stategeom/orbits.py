"""Orbit connectivity for both actions.

Two positive functionals of equal rank are connected by the explicit element
g = sum_j sqrt(p1_j/p0_j) |e1_j><e0_j| + sum_k |f1_k><f0_k| built from their
matched spectral decompositions; its operator norm is bounded by sqrt(C+1)
where C is the largest eigenvalue ratio.  For unit-trace inputs the same
element realizes the normalized action without rescaling.  At finite
dimension congruence orbits are decided completely by Sylvester inertia, the
eigenvalues from the PSD clamp to the rank cut counting as zero.  The tracial
orbit is in bijection with positive invertible unit-trace elements and is
convex, with an explicit square-root recombiner; the truncation sweep tracks
how the bound constant behaves as the dimension grows, from the closed form
of the connection between two diagonal states.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import config
from .actions import (GroupElement, _require_weight, _weight_squares, classical_phi,
                      group_element, phi, prescaled_phi)
from .errors import NotTracial, NumericalError, RankMismatch, ValidationError
from .linalg import (dagger, frobenius, fro_scale, in_range, matrix_sqrt_psd, require_hermitian,
                     require_dimension, signature)
from .states import (
    PositiveFunctional,
    ProbabilityVector,
    SpectralSplit,
    StateDensity,
    default_rank_tol,
    gibbs_spectrum,
    maximally_mixed,
    spectral_split,
    validate_positive,
    validate_probability,
    validate_state,
)


@dataclass(frozen=True)
class ConnectCertificate:
    """An orbit-connecting element together with its norm certificate.

    ``bound_constant`` is the largest eigenvalue ratio C; the element is
    guaranteed to satisfy ||g||_op <= sqrt(C+1) and to reproduce the target
    within ``achieved_residual``.
    """

    g: GroupElement
    bound_constant: float
    norm_bound: float
    achieved_residual: float


def _matched_splits(rho0, rho1) -> tuple[SpectralSplit, SpectralSplit, np.ndarray]:
    """The two splits, of equal rank and dimension (RankMismatch otherwise), and the
    ratios p1_j / p0_j of their spectra, each at most max p1 / min p0; NumericalError
    when a ratio overflows."""
    split0 = spectral_split(rho0)
    split1 = spectral_split(rho1)
    if split0.support_dim != split1.support_dim or split0.ambient_dim != split1.ambient_dim:
        raise RankMismatch(
            f"rank {split0.support_dim} (dim {split0.ambient_dim}) vs "
            f"rank {split1.support_dim} (dim {split1.ambient_dim})"
        )
    p0, p1 = split0.eigenvalues, split1.eigenvalues
    return split0, split1, in_range("eigenvalue ratio", float(p1[0]) / float(p0[-1]),
                                    lambda: p1 / p0)


def bound_constant(rho0, rho1) -> float:
    """Largest eigenvalue ratio C = max_j p1_j / p0_j over the spectra matched
    in non-increasing order.  Raises RankMismatch, and NumericalError when a
    ratio overflows."""
    return float(np.max(_matched_splits(rho0, rho1)[2]))


def _connect(validate, rho0, rho1, image) -> ConnectCertificate:
    """The certificate of the element g connecting ``validate(rho0)`` to
    ``validate(rho1)``: ||g||_op checked against sqrt(C+1), and ``image(g, rho0)``,
    the action's image of rho0, checked against rho1 (``_residual_guard``)."""
    rho0, rho1 = validate(rho0), validate(rho1)
    split0, split1, ratios = _matched_splits(rho0, rho1)
    e0, e1 = split0.support_basis, split1.support_basis
    g = (e1 * np.sqrt(ratios)) @ dagger(e0) + split1.kernel_basis @ dagger(split0.kernel_basis)
    c = float(np.max(ratios))
    element = group_element(g)
    bound = float(np.sqrt(c + 1.0))
    config.check("connecting element norm above sqrt(C+1)", element.sigma_max - bound,
                 config.NORM_BOUND_SLACK, bound, NumericalError)
    residual = _residual_guard(image(element.matrix, rho0), rho1.matrix)
    return ConnectCertificate(g=element, bound_constant=c, norm_bound=bound,
                              achieved_residual=residual)


def _residual_guard(image: np.ndarray, target: np.ndarray) -> float:
    return config.check("connection residual", frobenius(image - target),
                        config.CONNECT_RESIDUAL_RTOL, fro_scale(target), NumericalError)


def connect_alpha(rho0: PositiveFunctional, rho1: PositiveFunctional) -> ConnectCertificate:
    """Element g with g rho0 g† = rho1, for equal-rank positive functionals,
    from their spectra matched in non-increasing order."""
    return _connect(validate_positive, rho0, rho1, lambda g, rho: g @ rho.matrix @ dagger(g))


def connect_phi(rho0: StateDensity, rho1: StateDensity) -> ConnectCertificate:
    """Element g realizing rho1 under the normalized action, for equal ranks,
    from their spectra matched in non-increasing order.

    Unit traces make the congruence element exact without rescaling.  The
    residual reads phi's matrix before its validation, which the guard makes
    unnecessary.
    """
    return _connect(validate_state, rho0, rho1, lambda g, rho: prescaled_phi(g, rho)[0])


def same_orbit_alpha(xi0, xi1) -> bool:
    """Complete finite-dimensional congruence-orbit decision via inertia.

    Two Hermitian matrices are congruent iff their signatures agree
    (Sylvester); for positive functionals this reduces to equal rank.  Zero is
    [-PSD_CLAMP_RTOL, RANK_RTOL] (1 + ||xi||_F), the band that validation and
    ``classify_orbit`` count as zero.
    """
    m0, s0 = require_hermitian(xi0, "first functional")
    m1, s1 = require_hermitian(xi1, "second functional")
    if m0.shape != m1.shape:
        return False
    clamp = config.scaled(config.PSD_CLAMP_RTOL)
    return (signature(m0, clamp * s0, default_rank_tol(m0), s0)
            == signature(m1, clamp * s1, default_rank_tol(m1), s1))


def tracial_orbit_point(g, n: int) -> StateDensity:
    """Point g g† / Tr(g g†) of the orbit through the tracial state I/n.

    Every faithful state arises this way (take g = sqrt of the state).
    """
    return phi(g, maximally_mixed(n))


def require_tracial(tau: StateDensity) -> None:
    """Check Tr(tau ab) = Tr(tau ba) on the matrix-unit basis, i.e. that tau
    commutes with every matrix unit.  Raises NotTracial."""
    m = tau.matrix
    n = m.shape[0]
    # [tau, E_ij] has column j equal to tau[:, i] and row i equal to -tau[j, :],
    # meeting in tau_ii - tau_jj at (i, j); over all (i, j) its largest entry is
    # the largest off-diagonal |tau_kl| or the spread of the diagonal.
    diag = np.diagonal(m).real
    off = float(np.max(np.abs(m[~np.eye(n, dtype=bool)]), initial=0.0))
    config.check("commutator residual", max(off, float(diag.max() - diag.min())),
                 config.TRACIAL_ATOL, 1.0, NotTracial)


def convex_recombine(tau: StateDensity, g1, g2, lam: float) -> tuple[GroupElement, float]:
    """Square-root recombiner for mixtures on the tracial orbit.

    For tracial tau = I/n, phi(g, tau) = g g†/Tr(g g†), so the mixture
    target = lam*phi(g1,tau) + (1-lam)*phi(g2,tau) is phi(p, tau) for p the
    PSD square root of n * target; like phi it stays finite for large g.
    Returns the recombiner and the achieved Frobenius residual.
    """
    recombiner, _, residual = _recombine(tau, g1, g2, lam)
    return recombiner, residual


def _recombine(tau: StateDensity, g1, g2,
               lam: float) -> tuple[GroupElement, StateDensity, float]:
    """``convex_recombine`` with the mixture phi(recombiner, tau) that its
    residual is taken of: (recombiner, mixture, residual).  The two images
    that make the target are phi's matrices unvalidated, as no caller
    receives them; the mixture is validated."""
    _require_weight(lam)
    tau = validate_state(tau)
    require_tracial(tau)
    target = (lam * prescaled_phi(group_element(g1, tau.n).matrix, tau)[0]
              + (1.0 - lam) * prescaled_phi(group_element(g2, tau.n).matrix, tau)[0])
    recombiner = group_element(matrix_sqrt_psd(tau.n * target))
    mixture = phi(recombiner, tau)
    return recombiner, mixture, frobenius(mixture.matrix - target)


def convex_recombine_classical(p: ProbabilityVector, w1, w2,
                               lam: float) -> tuple[np.ndarray, float]:
    """Componentwise recombiner on the simplex (every classical state is tracial).

    Returns the weight vector sqrt(lam*|w1|^2/<p,|w1|^2> + ...) and the
    max-norm residual against the mixture of the two images.  Like
    ``classical_phi`` it first scales each w by a power of two, so large and
    tiny weights give the bits of ordinary ones.
    """
    _require_weight(lam)
    prob = validate_probability(p)
    # the images first: classical_phi checks each weight vector's length
    target = (lam * classical_phi(w1, prob).p
              + (1.0 - lam) * classical_phi(w2, prob).p)
    a1 = _weight_squares(w1)
    a2 = _weight_squares(w2)
    combined = lam * a1 / float(a1 @ prob.p) + (1.0 - lam) * a2 / float(a2 @ prob.p)
    weights = np.sqrt(combined)
    residual = float(np.max(np.abs(classical_phi(weights, prob).p - target)))
    return weights, residual


def _is_number(value, kind=numbers.Real, top: float = sys.float_info.max) -> bool:
    """Whether a config value is a number of the given kind and of magnitude at most
    ``top``, by default the largest double, so neither NaN nor inf is; bools are not."""
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= top


def _shown(value) -> str:
    """``repr(value)`` for a refusal message, or words: for an integer or fraction
    beyond double range, and for a value whose repr would hold more digits than
    Python turns into text (a fraction of huge terms may lie within range)."""
    if (isinstance(value, numbers.Rational) and not isinstance(value, bool)
            and abs(value) > sys.float_info.max):
        return "a value outside double range"
    try:
        return repr(value)
    except ValueError:  # Python's limit on the digits of an integer as text
        return "a number of more digits than can be printed"


@dataclass(frozen=True)
class SpectrumGenerator:
    """Produces a strictly positive spectrum for each truncation dimension;
    ``params`` is a read-only copy of the mapping given at construction."""

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def declared_limit(self) -> str | None:
        """"FullSupport" for the families of full support at every n (gibbs, power
        and uniform: the faithful class of the tracial orbit), None for dirichlet."""
        return "FullSupport" if self.kind in ("gibbs", "power", "uniform") else None

    def _number(self, key: str, default=None) -> float:
        value = self.params.get(key, default)
        if not _is_number(value):
            raise ValidationError(
                f"{self.kind} spectrum needs a finite number {key!r}, got {_shown(value)}")
        return float(value)

    def spectrum(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        n = require_dimension(n)
        if self.kind == "gibbs":
            return gibbs_spectrum(n, self._number("ratio"))
        if self.kind == "uniform":
            return np.full(n, 1.0 / n)
        if self.kind == "power":
            with np.errstate(over="ignore", invalid="ignore"):
                raw = np.arange(1, n + 1, dtype=float) ** (-self._number("exponent"))
                return raw / raw.sum()
        if self.kind == "dirichlet":
            if rng is None:
                raise ValidationError("dirichlet spectra need a seeded generator")
            alpha = self._number("alpha", 1.0)
            if not alpha >= 0.0:
                raise ValidationError(f"dirichlet alpha must be non-negative, got {alpha}")
            raw = np.sort(rng.dirichlet(np.full(n, alpha)))[::-1]
            floor = 1e-6 / n
            raw = np.maximum(raw, floor)
            return raw / raw.sum()
        raise ValidationError(f"unknown spectrum kind {self.kind!r}")


def make_spectrum_generator(mapping: dict) -> SpectrumGenerator:
    """Build a generator from a config mapping like {"kind": "gibbs", "ratio": 0.5};
    keys that its kind does not read are ignored."""
    if not isinstance(mapping, dict) or "kind" not in mapping:
        raise ValidationError("spectrum config must be a mapping with a 'kind' key")
    params = {k: v for k, v in mapping.items() if k != "kind"}
    return SpectrumGenerator(kind=mapping["kind"], params=params)


@dataclass(frozen=True)
class TruncationReport:
    """Per-dimension bound constants, norms and residuals of a truncation sweep."""

    dims: tuple
    bound_constants: tuple
    opnorms: tuple
    residuals: tuple
    orbit_class_tags: tuple
    flags: tuple
    ceiling: float

    @property
    def diverged(self) -> bool:
        return any(self.flags)


def _matched_spectra(n: int, spectra, normalise: bool) -> list:
    """Positive finite length-n spectra (normalised when asked), non-increasing."""
    out = []
    for s in spectra:
        s = np.asarray(s, dtype=float)
        ok = s.shape == (n,) and np.all((s > 0.0) & (s < math.inf))
        if ok and normalise:
            with np.errstate(over="ignore"):  # a sum that overflows leaves zeros
                s = s / s.sum()
            ok = np.all(s > 0.0)
        if not ok:
            raise ValidationError(f"generators must produce positive length-{n} spectra")
        out.append(np.sort(s)[::-1])
    return out


def truncation_sweep(gen0: SpectrumGenerator, gen1: SpectrumGenerator, dims,
                     ceiling: float = 1e6, action: str = "phi",
                     rng: np.random.Generator | None = None) -> TruncationReport:
    """Connect truncated spectra at each dimension and track the bound constant.

    ``action`` selects the normalized connection on unit-trace truncations
    ("phi") or the raw congruence connection on the fixed spectra ("alpha",
    where nested truncations make C non-decreasing).  Each row is the closed
    form for two diagonal states, O(n log n).  A row is flagged when C exceeds
    ``ceiling``, a finite positive number; a row whose C overflows holds inf in
    C, opnorm and residual, and is flagged.
    """
    if action not in ("alpha", "phi"):
        raise ValidationError(f"unknown action {action!r}, expected 'alpha' or 'phi'")
    # an infinite ceiling would flag no row, not even one whose C overflows
    if not (_is_number(ceiling) and ceiling > 0.0):
        raise ValidationError(f"ceiling must be a finite positive number, got {_shown(ceiling)}")
    dims = list(dims) if isinstance(dims, Iterable) else []
    if not dims or not all(_is_number(n, numbers.Integral, config.MAX_FLOAT64S) and n >= 1
                           for n in dims):
        raise ValidationError("dims must be a nonempty list of integers from 1 to "
                              f"{config.MAX_FLOAT64S}, the most entries of one float64 array")
    dims = [int(n) for n in dims]

    cs, residuals = [], []
    for n in dims:
        p0, p1 = _matched_spectra(n, (gen0.spectrum(n, rng), gen1.spectrum(n, rng)),
                                  action == "phi")
        # In the matched (non-increasing) order of sorted_eigh the connecting
        # element is diag(sqrt(r)), r = p1/p0, and it maps p0 to sqrt(r) p0 sqrt(r).
        with np.errstate(over="ignore"):
            ratios = p1 / p0
        cs.append(float(np.max(ratios)))
        root = np.sqrt(ratios)
        image = root * p0 * root
        # where C overflows the element has no double entries and no residual
        residuals.append(math.inf if cs[-1] == math.inf else
                         _residual_guard(image / image.sum() if action == "phi" else image, p1))

    limit = "" if gen1.declared_limit is None else f" (declared limit: {gen1.declared_limit})"
    return TruncationReport(
        dims=tuple(dims),
        bound_constants=tuple(cs),
        # ||diag(sqrt(p1/p0))||_op = sqrt(C), rounded once by a monotone sqrt:
        # at most sqrt(C + 1), so the norm bound holds without a check.
        opnorms=tuple(math.sqrt(c) for c in cs),
        residuals=tuple(residuals),
        orbit_class_tags=tuple(f"FiniteRank({n}){limit}" for n in dims),
        flags=tuple(c > ceiling for c in cs),
        ceiling=float(ceiling),
    )
