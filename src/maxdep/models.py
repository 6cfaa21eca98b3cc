"""The model table: every dependence model of the package, by name.

A model contributes its diagonal delta_n (a ``DiagonalFamily`` with the
canonical rate r_n and the limit distortion D), D itself, a path sampler
(the independent Monte Carlo check of that diagonal) and, where it is known,
the exact gap s(n) = sup_u |delta_n(u^(1/r_n)) - D(u)| with the Holder
exponent kappa of D (constant 1) that ``ratebounds.composite_rate_bound``
takes.  ``power`` and ``amh-mixture`` are limits only.  Factories look
library functions up on their modules when called, so rebinding those names
(instrumentation, say) reaches them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import diagonals, distortions, generators, ratebounds, samplers
from ._numutil import lookup, name_key
from .diagonals import DiagonalFamily
from .distortions import Distortion
from .samplers import SequenceModel


@dataclass(frozen=True)
class ModelSpec:
    """Factories of one model's parts, None where it lacks one: diagonal(**params),
    sampler(**params), gap(n, **params) -> (s(n), kappa) and limit(**params),
    the limit distortion D."""

    params: tuple[str, ...]
    diagonal: Callable[..., DiagonalFamily] | None
    sampler: Callable[..., SequenceModel] | None = None
    gap: Callable[..., tuple[float, float]] | None = None
    limit: Callable[..., Distortion] | None = None


def _with_limit(params, diagonal, sampler=None, gap=None) -> ModelSpec:
    """An entry whose limit is the limit distortion its diagonal carries."""
    return ModelSpec(params, diagonal, sampler, gap, lambda **p: diagonal(**p).limit_distortion)


def _archimedean(family: str) -> ModelSpec:
    """psi(n*psi_inv(u)) for a one-parameter built-in generator, sampled by its frailty."""
    return _with_limit(
        ("theta",),
        lambda theta: diagonals.archimedean_diagonal(generators.builtin_generator(family, theta)),
        lambda theta: samplers.ArchimedeanFrailty(family, theta),
    )


MODELS: dict[str, ModelSpec] = {
    "independence": _with_limit((), diagonals.independence_diagonal, samplers.IID, lambda n: (0.0, 1.0)),
    # delta_n(u) = u for every n: no rate and no limit distortion
    "comonotone": ModelSpec((), diagonals.comonotone_diagonal),
    "movingmax": _with_limit(
        ("k",),
        diagonals.moving_max_diagonal,
        samplers.MovingMax,
        lambda n, k: (ratebounds.movingmax_s(n, k), 1.0 / (k + 1.0)),
    ),
    "cuadras-auge": _with_limit(("theta",), diagonals.cuadras_auge_diagonal),
    "logistic": _with_limit(("theta",), diagonals.logistic_power_diagonal),
    "efgm": _with_limit(("theta",), diagonals.efgm_mixture_diagonal, samplers.EfgmExchangeable),
    # the log-type generator has no parameter and no frailty sampler
    "ballerini": _with_limit((), lambda: diagonals.archimedean_diagonal(generators.builtin_generator("ballerini"))),
    **{family: _archimedean(family) for family in ("clayton", "frank", "gumbel", "joe", "amh")},
    # no closed-form diagonal; its extremal index is 1, so its maxima have the
    # independence rate n and the identity distortion
    "ar1": ModelSpec(("phi",), None, samplers.GaussianAR1),
    # limits only
    "power": ModelSpec(("theta",), None, limit=lambda theta: distortions.power(theta)),
    "amh-mixture": ModelSpec((), None, limit=lambda: distortions.amh_uniform_mixture()),
}

_ALIASES = {"iid": "independence", "moving-max": "movingmax", "amh-uniform-mixture": "amh-mixture"}


def model_spec(name: str, role: str | None = None) -> ModelSpec:
    """The ``MODELS`` entry of a name or alias (see ``_numutil.lookup``); with
    ``role``, a ``ModelSpec`` field, the entry must have that part."""
    return lookup("model", MODELS, _ALIASES, name, role)


def make_diagonal(variant: str, **params) -> DiagonalFamily:
    """Diagonal family of a model by name (see ``MODELS``).

    ``"archimedean"`` with ``family=`` is that family's entry.  Parameters
    the model does not take are ignored.  An Archimax diagonal is no entry:
    ``diagonals.archimax_diagonal`` puts a generator under a schedule eta_n,
    ``diagonals.logistic_eta(theta)`` for the logistic one.
    """
    spec = model_spec(params.pop("family") if name_key(variant) == "archimedean" else variant, "diagonal")
    return spec.diagonal(**{p: params[p] for p in spec.params if p in params})
