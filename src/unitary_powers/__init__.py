"""Exact computation of M-th powers in finite unitary groups U(n, q).

The package combines three layers that check each other:

  * closed-form counts of the self-conjugate irreducible polynomials over
    F_q2 whose companion blocks have M-th roots (`counts`),
  * exact-rational generating functions whose z^n coefficients count the
    separable, cyclic, and semisimple M-th-power classes of U(n, q) and the
    matching element proportions (`genfun` / `series`),
  * a brute-force oracle that builds small U(n, q) explicitly and tabulates
    the image of the power map (`oracle`).

The `unitary-powers` CLI exposes count tables, series coefficients, and the
series-versus-oracle verification as CSV/JSON reports.
"""

__version__ = "0.1.0"

from ._numth import EnumerationBoundError, InvariantError
from .gf import FieldDesc, FieldInvariantError, make_field
from .polyalg import (
    FactorisationError,
    Poly,
    PolyClass,
    butler_pattern,
    classify,
    compose_power,
    factor,
    is_irreducible,
    is_m_power_pair,
    is_mtilde_power,
    tilde,
)
from .counts import (
    CountInvariantError,
    CountRecord,
    count_irreducible,
    count_mpower_pairs,
    count_mtilde_scim,
    count_pairs,
    count_record,
    count_scim,
    mobius,
    s_prime,
    s_tilde_prime,
)
from .series import (
    Series,
    SeriesInvariantError,
    binom_factor,
    euler_factor,
    group_order_GL,
    group_order_U,
)
from .genfun import (
    Family,
    Kind,
    SeriesRequest,
    centralizer_order,
    cyc_class_series,
    cyc_elem_series,
    sep_class_series,
    sep_elem_series,
    series_for,
    ss_class_series,
    ss_elem_series,
)
from .oracle import (
    ConjugacyDatum,
    GroupTable,
    MatrixClassKind,
    MatrixRep,
    OracleInvariantError,
    block_matrix,
    build_group,
    char_poly,
    check_block_power,
    classify_matrix,
    companion,
    datum_of,
    gl_class_data,
    group_table,
    power_image_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
