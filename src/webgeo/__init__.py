"""webgeo: numeric analysis of planar webs.

A planar d-web is a family of d foliations of a plane domain, each given by
the level sets of a function.  This package decides, numerically on grids,
whether webs are geodesic for affine connections and projective structures,
fits the unique projective structure determined by a 4-web, tests whether
that structure contains an affine symmetric connection, and generates
linear webs by solving the Euler equation with the method of
characteristics.  Derivatives come from truncated Taylor jets of
user-supplied formulas; nothing is differentiated symbolically.

The main entry points:

- :func:`parse` / :func:`evaluate` / :func:`evaluate_jet`: the formula
  language.
- :func:`flex` and the ``*_residual`` family: geodesicity tests.
- :func:`fit_projective_structure` / :func:`fit_by_linear_solve`: the
  4-web fit, each the oracle of the other.
- :func:`symmetric_conditions_residual` and
  :func:`integrate_symmetric_connection`: symmetric projective structures.
- :func:`characteristic_roots` / :func:`generate_linear_web`: linear webs.
- :func:`trace_level_curve` / :func:`render_svg` / :func:`write_report`:
  output.

The ``webgeo`` command line exposes the same analyses; see the README.

Importing the package loads none of its modules.  Each name of
``__all__`` is imported from the module that defines it when it is first
read (PEP 562), and so is each module, as ``webgeo.geodesy``; a command
thus loads only the modules it runs.  The constants the command line
parser reads are defined here, so that building the parser loads nothing
numeric.
"""

import importlib

#: The tolerance every verdict uses unless it is given one.
DEFAULT_TOLERANCE = 1e-8

#: The two verdicts of each kind of check, the passing one first.
GEODESIC_VERDICTS = ("geodesic", "non-geodesic")
SYMMETRIC_VERDICTS = ("symmetric", "non-symmetric")
PASS_FAIL_VERDICTS = ("pass", "fail")

#: Most leaves drawn per foliation: `generate_linear_web`'s leaves and
#: the CLI's `render --levels`.
MAX_LEAVES = 10_000

__version__ = "0.1.0"

#: Each module and the public names it defines.
_EXPORTS = {
    "taylor": (
        "MAX_ORDER", "JetDomainError", "JetError", "TaylorJet", "derivative_jet",
        "jet_arith", "jet_constant", "jet_elementary", "jet_variable",
        "partial_derivative", "truncate_jet",
    ),
    "exprlang": (
        "Binary", "Call", "Constant", "EvaluationError", "Expression", "ParseError",
        "PartialDerivative", "Unary", "Variable", "as_expression", "evaluate",
        "evaluate_gradient", "evaluate_jet", "evaluate_jet_with", "parse", "to_source",
    ),
    "geometry": (
        "ChristoffelField", "CurvatureMatrix", "GRAPH_SURFACE_GAMMA_NOTE",
        "ThomasParameters", "christoffels_constant_curvature",
        "christoffels_graph_surface", "constant_curvature_metric",
        "curvature_components", "gaussian_curvature_oracle", "thomas_from_christoffels",
    ),
    "geodesy": (
        "GridSpec", "ResidualSample", "WebPresentation", "constant_curvature_residual",
        "flex", "flex_of_jet", "flex_residual", "geodesic_web_report",
        "graph_surface_residual", "projective_flex_residual",
    ),
    "projective": (
        "AlphaBeta", "DegenerateWebError", "FiniteTypeState", "IntegrationResult",
        "alpha_beta", "curvature_along", "dweb_geodesic_residuals", "finite_type_rhs",
        "fit_by_linear_solve", "fit_projective_structure",
        "integrate_symmetric_connection", "symmetric_conditions_residual",
    ),
    "eulerweb": (
        "CauchyDatum", "CharacteristicRoot", "CharacteristicSolution",
        "FoliationSample", "LinearWebSample", "characteristic_roots",
        "connection_euler_residual", "connection_euler_residual_of_jet",
        "euler_residual", "euler_residual_of_jet", "generate_linear_web",
    ),
    "render": (
        "LeafPolyline", "Rect", "compose_report", "render_svg", "trace_level_curve",
        "write_csv_grid", "write_report",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

#: The modules, read as attributes of the package.
_MODULES = frozenset({*_EXPORTS, "cli"})

__all__ = ["DEFAULT_TOLERANCE", *_MODULE_OF]


def __getattr__(name: str):
    """Import the module that defines `name`, or the module `name`, and
    keep what it gives as an attribute of the package."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
