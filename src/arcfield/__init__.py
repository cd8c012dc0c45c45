"""Exact truncated Puiseux series, arc transport through blow-ups, and
topology probes on arc spaces."""

from .errors import ArcFieldError
from .newton import PolyOverSeries, RootBranch, np_roots, rc_witness_odd
from .param_series import (
    DivergenceWitness,
    LaurentEps,
    ParamSeries,
    divergence_witness,
    select_m0n0,
)
from .puiseux import (
    DIVERGES,
    PuiseuxSeries,
    ZeroUpToTruncation,
    arc,
    render_series,
    reparam_inverse,
)
from .mapexpr import MapExpr, map_expr, variables
from .parser import parse_map, parse_poly, parse_series
from .topology import (
    ArcSamplerSpec,
    HolderEstimate,
    LojaFit,
    holder_probe,
    loja_fit,
    product_topology_limit,
    tadic_ord_dist,
    transfer_check,
    uniform_modulus_probe,
)
from .transport import (
    counterexample_pushforward,
    lift_arc_blowup,
    radial_stretch_map,
    solve_preimage_arc,
    whitney_umbrella_map,
)

__version__ = "0.1.0"

__all__ = [
    "ArcFieldError",
    "ArcSamplerSpec",
    "DIVERGES",
    "DivergenceWitness",
    "HolderEstimate",
    "LaurentEps",
    "LojaFit",
    "MapExpr",
    "ParamSeries",
    "PolyOverSeries",
    "PuiseuxSeries",
    "RootBranch",
    "ZeroUpToTruncation",
    "arc",
    "counterexample_pushforward",
    "divergence_witness",
    "holder_probe",
    "lift_arc_blowup",
    "loja_fit",
    "map_expr",
    "np_roots",
    "parse_map",
    "parse_poly",
    "parse_series",
    "product_topology_limit",
    "radial_stretch_map",
    "rc_witness_odd",
    "render_series",
    "reparam_inverse",
    "select_m0n0",
    "solve_preimage_arc",
    "tadic_ord_dist",
    "transfer_check",
    "uniform_modulus_probe",
    "variables",
    "whitney_umbrella_map",
]
