"""The model table: every dependence model of the package, by name.

A model contributes its diagonal delta_n (a ``DiagonalFamily`` with the
canonical rate r_n and the limit distortion D), a path sampler (the
independent Monte Carlo check of that diagonal) and, where it is known, the
exact gap s(n) = sup_u |delta_n(u^(1/r_n)) - D(u)| with the Holder exponent
kappa of D (constant 1) that ``ratebounds.composite_rate_bound`` takes.
Factories look generator and rate-bound functions up on their modules when
called, so rebinding those names (instrumentation, say) reaches them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import diagonals, generators, ratebounds, samplers
from .diagonals import DiagonalFamily
from .samplers import SequenceModel


@dataclass(frozen=True)
class ModelSpec:
    """Factories of one model's parts, None where it lacks one: diagonal(**params),
    sampler(**params) and gap(n, **params) -> (s(n), kappa)."""

    params: tuple[str, ...]
    diagonal: Callable[..., DiagonalFamily] | None
    sampler: Callable[..., SequenceModel] | None = None
    gap: Callable[..., tuple[float, float]] | None = None


def _archimedean(family: str) -> ModelSpec:
    """psi(n*psi_inv(u)) for a one-parameter built-in generator, sampled by its frailty."""
    return ModelSpec(
        ("theta",),
        lambda theta: diagonals.archimedean_diagonal(generators.builtin_generator(family, theta)),
        lambda theta: samplers.ArchimedeanFrailty(family, theta),
    )


MODELS: dict[str, ModelSpec] = {
    "independence": ModelSpec((), diagonals.independence_diagonal, samplers.IID, lambda n: (0.0, 1.0)),
    "comonotone": ModelSpec((), diagonals.comonotone_diagonal),
    "movingmax": ModelSpec(
        ("k",),
        diagonals.moving_max_diagonal,
        samplers.MovingMax,
        lambda n, k: (ratebounds.movingmax_s(n, k), 1.0 / (k + 1.0)),
    ),
    "cuadras-auge": ModelSpec(("theta",), diagonals.cuadras_auge_diagonal),
    "logistic": ModelSpec(("theta",), diagonals.logistic_power_diagonal),
    "efgm": ModelSpec(("theta",), diagonals.efgm_mixture_diagonal, samplers.EfgmExchangeable),
    # the log-type generator has no parameter and no frailty sampler
    "ballerini": ModelSpec((), lambda: diagonals.archimedean_diagonal(generators.builtin_generator("ballerini"))),
    **{family: _archimedean(family) for family in ("clayton", "frank", "gumbel", "joe", "amh")},
    # no closed-form diagonal; its extremal index is 1, so its maxima have the
    # independence rate n and the identity distortion
    "ar1": ModelSpec(("phi",), None, samplers.GaussianAR1),
}

_ALIASES = {"iid": "independence", "moving-max": "movingmax"}


def model_spec(name: str) -> ModelSpec:
    """The ``MODELS`` entry of a name or alias, in any case, '_' read as '-'."""
    key = name.lower().replace("_", "-")
    spec = MODELS.get(_ALIASES.get(key, key))
    if spec is None:
        raise ValueError(f"unknown model {name!r}; pick from {', '.join(MODELS)}")
    return spec


def make_diagonal(variant: str, **params) -> DiagonalFamily:
    """Diagonal family of a model by name (see ``MODELS``).

    ``"archimedean"`` with ``family=`` is that family's entry.  ``"archimax"``
    with ``family=``, ``theta=`` and ``theta_stdf=`` puts the built-in
    generator under the logistic schedule eta_n = n^(1/theta_stdf).
    Parameters the model does not take are ignored.
    """
    v = variant.lower().replace("_", "-")
    if v == "archimax":
        g = generators.builtin_generator(params["family"], params.get("theta"))
        return diagonals.archimax_diagonal(g, diagonals.logistic_eta(params["theta_stdf"]))
    spec = model_spec(params.pop("family") if v == "archimedean" else v)
    if spec.diagonal is None:
        raise ValueError(f"model {variant!r} has no closed-form diagonal")
    return spec.diagonal(**{p: params[p] for p in spec.params if p in params})
