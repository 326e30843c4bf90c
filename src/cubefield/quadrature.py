"""One adaptive quadrature rule for every integral of the package.

The 10-point Gauss and 21-point Kronrod pair of QUADPACK's qk21, globally
adaptive and vectorized: each round evaluates the integrand once, on the 21
nodes of every panel it splits, so a numpy integrand costs one call per round
rather than one per node.  The error estimate is qk21's: the Kronrod-Gauss
difference, scaled by (200 |K - G| / resasc)^1.5 and floored at 50 eps times
the panel's integral of |f|.  There is no extrapolation: a caller whose
integrand is singular at an endpoint substitutes the singularity away first,
so the panels meet smooth (or at worst bounded) integrands.
"""

import numpy as np

from .errors import NumericError, ResourceLimitError

# QUADPACK qk21: Kronrod abscissae and weights from the outside in, the
# centre last; the Gauss nodes are the odd entries of the Kronrod ones
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525881493, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])


def _symmetric(half: np.ndarray, sign: float) -> np.ndarray:
    """The 21 values on [-1, 1] from the 11 of one side, centre last."""
    return np.concatenate([sign * half[:10], half[10:], half[9::-1]])


_NODES = _symmetric(_XGK, -1.0)
_KRONROD = _symmetric(_WGK, 1.0)
_GAUSS = np.zeros(11)
_GAUSS[1::2] = _WG
_RULES = np.stack([_KRONROD, _symmetric(_GAUSS, 1.0) - _KRONROD], axis=1)  # K, and G - K
_ROUNDOFF = 50.0 * np.finfo(float).eps
_FIRST_PANELS = 4  # from four panels, one round settles most smooth integrands
_FIRST_CENTRES = (np.arange(_FIRST_PANELS) + 0.5) / _FIRST_PANELS
_EPSREL = 1e-13
_PANEL_LIMIT = 2000
# integrand values in one round: 16 MiB per float64 array, whatever the batch
_NODE_LIMIT = 1 << 21


def quad(fn, lo: float, hi: float):
    """(integral of fn over [lo, hi], error estimate), globally adaptive qk21.

    fn takes the nodes as an array of shape (panels, 21) and returns an
    array of that shape, or of shape batch + (panels, 21) for a batch of
    integrands that share one subdivision; value and error then have the
    batch shape.  The rule starts from _FIRST_PANELS equal panels.  Each
    round splits in two every panel whose error exceeds its share
    tol / panels, with tol = _EPSREL |value| for each integrand, until every
    error sum is within its tol.  A subdivision that would pass
    _PANEL_LIMIT panels raises NumericError, and a round that would pass
    _NODE_LIMIT integrand values ResourceLimitError.  hi = inf is mapped to
    [0, 1) by x = lo + u/(1-u).
    """
    if hi == np.inf:
        return quad(lambda u: fn(lo + u / (1.0 - u)) / (1.0 - u) ** 2, 0.0, 1.0)
    centre = lo + (hi - lo) * _FIRST_CENTRES
    half = np.full(_FIRST_PANELS, 0.5 * (hi - lo) / _FIRST_PANELS)
    values, errors = _qk21(fn, centre, half)
    while True:
        value, error = values.sum(axis=-1), errors.sum(axis=-1)
        tol = _EPSREL * np.abs(value)
        if (error <= tol).all():
            return value, error
        split = (errors > (tol / centre.size)[..., None]).reshape(-1, centre.size).any(axis=0)
        count = int(split.sum())
        if centre.size + count > _PANEL_LIMIT:
            raise NumericError(f"quadrature on [{lo}, {hi}] did not converge in {_PANEL_LIMIT} "
                               f"panels: error {error.max():.3g} against value {value}")
        if 2 * count * (values.size // centre.size) * _NODES.size > _NODE_LIMIT:
            raise ResourceLimitError(f"quadrature on [{lo}, {hi}] needs more than {_NODE_LIMIT} "
                                     "integrand values in one round")
        mid, quarter = centre[split], 0.5 * half[split]
        new_centre = np.concatenate([mid - quarter, mid + quarter])
        new_values, new_errors = _qk21(fn, new_centre, np.concatenate([quarter, quarter]))
        keep = ~split
        centre = np.concatenate([centre[keep], new_centre])
        half = np.concatenate([half[keep], quarter, quarter])
        values = np.concatenate([values[..., keep], new_values], axis=-1)
        errors = np.concatenate([errors[..., keep], new_errors], axis=-1)


def _qk21(fn, centre: np.ndarray, half: np.ndarray):
    """qk21 on each panel: (integrals, error estimates), shape batch + (panels,)."""
    x = centre[:, None] + half[:, None] * _NODES
    f = np.asarray(fn(x), dtype=float)
    if not np.isfinite(f).all():
        raise NumericError(f"the integrand is not finite on [{x.min()}, {x.max()}]")
    rules = f @ _RULES
    kronrod, error = rules[..., 0], rules[..., 1]
    width = np.abs(half)
    resabs = np.abs(f) @ _KRONROD * width
    resasc = np.abs(f - 0.5 * kronrod[..., None]) @ _KRONROD * width
    error = np.abs(error) * width
    ratio = np.divide(200.0 * error, resasc, out=np.zeros_like(error), where=resasc > 0)
    error = np.where(resasc > 0, resasc * np.minimum(1.0, ratio) ** 1.5, error)
    return kronrod * half, np.maximum(error, _ROUNDOFF * resabs)
