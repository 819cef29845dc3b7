"""Catalog conveniences that only tests use."""

from qident.identities import _spec, eval_product
from qident.series import QSeries


def rhs_series(name: str, params: dict, qprec: int) -> QSeries:
    """The product side of a catalog row, after checking its parameters."""
    return eval_product(_spec(name, params).rhs(params), qprec)
