"""The in-process schedules of lib_small and lib_large.

An operation is one public library call of one layer at one size, paired
with its numpy-only check.  Inputs come from ``inputs`` and are only wrapped
in the program's own types here (``validate_state`` and friends), before any
timing starts.  Operations within a pass run in order; a few read the result
of an earlier one through ``saved`` (the GNS triple feeds ``rep`` and
``gns_transform``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import stategeom as sg
from stategeom import serialize

import checks
import inputs

INERTIA_ZERO_TOL = 1e-9
FLOW_POINTS = 50


@dataclass(frozen=True)
class Op:
    layer: str
    func: str
    n: int
    call: Callable[[dict], object]
    check: Callable[[object, dict], None]
    save: str | None = None

    @property
    def kind(self) -> str:
        return f"{self.layer}.{self.func}"

    @property
    def key(self) -> str:
        return f"{self.kind}.n{self.n}"


def _small_case(c: dict) -> list[Op]:
    n, k = c["n"], c["rank"]
    rho_m, g, h, a = c["rho"], c["g"], c["h"], c["gen"]
    rho = sg.validate_state(rho_m)
    rho_b = sg.validate_state(c["rho_same_rank"])
    rho_o = sg.validate_state(c["rho_other_rank"])
    prob = sg.validate_probability(c["prob"])
    w = c["weights"]
    mem, mem_phi, generic = c["iso_member"], c["iso_member_phi"], c["iso_generic"]
    ops = [
        Op("linalg", "hermitian_eig", n, lambda s: sg.hermitian_eig(h),
           lambda r, s: checks.hermitian_eig(r, h)),
        Op("linalg", "matrix_sqrt_psd", n, lambda s: sg.matrix_sqrt_psd(rho_m),
           lambda r, s: checks.matrix_sqrt_psd(r, rho_m)),
        Op("linalg", "polar", n, lambda s: sg.polar(g), lambda r, s: checks.polar(r, g)),
        Op("linalg", "inertia", n, lambda s: sg.inertia(h, INERTIA_ZERO_TOL),
           lambda r, s: checks.inertia(r, h, INERTIA_ZERO_TOL)),
        Op("linalg", "matrix_exp", n, lambda s: sg.matrix_exp(a),
           lambda r, s: checks.matrix_exp(r, a)),
        Op("states", "validate_state", n, lambda s: sg.validate_state(rho_m),
           lambda r, s: checks.validated_state(r, rho_m)),
        Op("states", "spectral_split", n, lambda s: sg.spectral_split(rho),
           lambda r, s: checks.spectral_split(r, rho_m, k)),
        Op("states", "classify_orbit", n, lambda s: sg.classify_orbit(rho),
           lambda r, s: checks.orbit_class(r, n, k)),
        Op("actions", "group_element", n, lambda s: sg.group_element(g),
           lambda r, s: checks.group_element(r, g)),
        Op("actions", "alpha", n, lambda s: sg.alpha(g, rho),
           lambda r, s: checks.alpha(r, g, rho_m)),
        Op("actions", "phi", n, lambda s: sg.phi(g, rho), lambda r, s: checks.phi(r, g, rho_m)),
        Op("actions", "classical_phi", n, lambda s: sg.classical_phi(w, prob),
           lambda r, s: checks.classical_phi(r, w, c["prob"])),
        Op("orbits", "connect_alpha", n, lambda s: sg.connect_alpha(rho, rho_b),
           lambda r, s: checks.connect(r, rho_m, c["rho_same_rank"], "alpha", k)),
        Op("orbits", "connect_phi", n, lambda s: sg.connect_phi(rho, rho_b),
           lambda r, s: checks.connect(r, rho_m, c["rho_same_rank"], "phi", k)),
        Op("orbits", "same_orbit_alpha", n, lambda s: sg.same_orbit_alpha(rho_m, rho_b.matrix),
           lambda r, s: checks.equals(r, True)),
        Op("orbits", "same_orbit_alpha", n, lambda s: sg.same_orbit_alpha(rho_m, rho_o.matrix),
           lambda r, s: checks.equals(r, False)),
        Op("tangent", "tangent_phi", n, lambda s: sg.tangent_phi(rho, a),
           lambda r, s: checks.tangent_phi(r, rho_m, a)),
        Op("tangent", "fd_tangent_check", n, lambda s: sg.fd_tangent_check(rho, a),
           lambda r, s: checks.fd_error(r)),
        Op("isotropy", "isotropy_membership_alpha", n,
           lambda s: sg.isotropy_membership_alpha(mem, rho),
           lambda r, s: checks.membership(r, mem, rho_m, "alpha", True)),
        Op("isotropy", "isotropy_membership_alpha", n,
           lambda s: sg.isotropy_membership_alpha(generic, rho),
           lambda r, s: checks.membership(r, generic, rho_m, "alpha", False)),
        Op("isotropy", "isotropy_membership_phi", n,
           lambda s: sg.isotropy_membership_phi(mem_phi, rho),
           lambda r, s: checks.membership(r, mem_phi, rho_m, "phi", True)),
        Op("isotropy", "isotropy_membership_phi", n,
           lambda s: sg.isotropy_membership_phi(generic, rho),
           lambda r, s: checks.membership(r, generic, rho_m, "phi", False)),
    ]
    if c["gns"]:
        ops += [
            Op("gns", "gns_construct", n, lambda s: sg.gns_construct(rho),
               lambda r, s: checks.gns_small(r, rho_m, k, a)),
            Op("gns", "purity_check", n, lambda s: sg.purity_check(rho),
               lambda r, s: checks.equals(r, k == 1)),
        ]
    return ops


def lib_small(data: dict) -> list[Op]:
    return [op for c in data["cases"] for op in _small_case(c)]


def _iso_op(n: int, k: int, rho_m: np.ndarray) -> Op:
    rho = sg.validate_state(rho_m)
    return Op("isotropy", "isotropy_report", n, lambda s: sg.isotropy_report(rho),
              lambda r, s: checks.isotropy_report(r, n, k))


def _gns_ops(n: int, rho_m: np.ndarray, a: np.ndarray, g: np.ndarray) -> list[Op]:
    rho = sg.validate_state(rho_m)
    t, ra = f"triple{n}", f"rep{n}"
    return [
        Op("gns", "gns_construct", n, lambda s: sg.gns_construct(rho),
           lambda r, s: checks.gns_triple(r, n, n), save=t),
        Op("gns", "rep", n, lambda s: s[t].rep(a),
           lambda r, s: checks.gns_expectation(r, s[t].cyclic, rho_m, a), save=ra),
        Op("gns", "gns_transform", n, lambda s: sg.gns_transform(s[t], g, rho),
           lambda r, s: checks.gns_transform(r, s[ra], rho_m, g, a)),
    ]


def _purity_op(n: int, rho_m: np.ndarray) -> Op:
    rho = sg.validate_state(rho_m)
    return Op("gns", "purity_check", n, lambda s: sg.purity_check(rho),
              lambda r, s: checks.equals(r, False))


def _recombine_op(n: int, g1: np.ndarray, g2: np.ndarray, lam: float) -> Op:
    tau = sg.maximally_mixed(n)
    return Op("orbits", "convex_recombine", n, lambda s: sg.convex_recombine(tau, g1, g2, lam),
              lambda r, s: checks.convex_recombine(r, tau.matrix, g1, g2, lam))


def _file_ops(m: np.ndarray, kind: str, path: Path) -> list[Op]:
    n = m.shape[0]
    path.write_text(inputs.matrix_json(m, kind))
    return [
        Op("serialize", "dumps_canonical", n,
           lambda s: serialize.dumps_canonical(serialize.matrix_to_jsonable(m, kind)),
           lambda r, s: checks.dumped_matrix(r, m, kind)),
        Op("serialize", "load_matrix_file", n, lambda s: serialize.load_matrix_file(path),
           lambda r, s: checks.loaded_matrix(r, m, kind)),
    ]


def lib_large(data: dict, workdir: Path) -> list[Op]:
    rho64_m, rho64b_m, gen64 = data["rho64"], data["rho64_b"], data["gen64"]
    rho64, rho64_b = sg.validate_state(rho64_m), sg.validate_state(rho64b_m)
    herm64 = data["herm64"]
    rho16_m = data["rho16"]
    rho16 = sg.validate_state(rho16_m)
    grid = np.linspace(0.0, 1.0, FLOW_POINTS)
    ts, traj_m = data["trajectory_t"], data["trajectory"]
    traj = [sg.validate_state(m) for m in traj_m]
    workdir.mkdir(parents=True, exist_ok=True)
    ops = [_iso_op(n, k, rho) for n, k, rho in data["iso"]]
    for n, rho, a, g in data["gns"]:
        ops += _gns_ops(n, rho, a, g)
    ops += [_purity_op(n, rho) for n, rho in data["purity"]]
    ops += [_recombine_op(*args) for args in data["recombine"]]
    ops += [
        Op("orbits", "connect_phi", 64, lambda s: sg.connect_phi(rho64, rho64_b),
           lambda r, s: checks.connect(r, rho64_m, rho64b_m, "phi", 64)),
        Op("tangent", "flow", 64, lambda s: sg.flow(rho64, gen64, grid),
           lambda r, s: checks.flow(r, rho64_m, gen64, grid)),
        Op("tangent", "tangent_map_rank", 16, lambda s: sg.tangent_map_rank(rho16),
           lambda r, s: checks.tangent_map_rank(r, 16, 8)),
        Op("linalg", "hermitian_eig", 64, lambda s: sg.hermitian_eig(herm64),
           lambda r, s: checks.hermitian_eig(r, herm64)),
        Op("linalg", "matrix_exp", 64, lambda s: sg.matrix_exp(gen64),
           lambda r, s: checks.matrix_exp(r, gen64)),
    ]
    ops += _file_ops(rho64_m, "state", workdir / "state64.json")
    ops += _file_ops(data["op64"], "operator", workdir / "operator64.json")
    ops.append(Op("serialize", "flow_csv", 16, lambda s: serialize.flow_csv(ts, traj),
                  lambda r, s: checks.flow_csv(r, ts, traj_m)))
    return ops


def build(data: dict, workdir: Path) -> dict[str, list[Op]]:
    return {"lib_small": lib_small(data["lib_small"]),
            "lib_large": lib_large(data["lib_large"], workdir)}


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The first operation of every kind, in schedule order.

    An operation that reads ``saved`` always follows the first operation of
    the kind it reads from, so the warm-up list runs on its own.
    """
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out
