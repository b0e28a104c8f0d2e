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

The public names below are resolved on first use (PEP 562), so importing the
package loads no layer, and a caller of the counts or series never loads the
oracle.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule's own name maps
# to itself
_EXPORTS = {
    name: module
    for module, names in (
        ("_numth", "EnumerationBoundError InvariantError"),
        ("gf", "gf FieldDesc FieldInvariantError make_field"),
        ("polyalg", "polyalg FactorisationError Poly PolyClass classify compose_power"
                    " factor is_irreducible is_m_power_pair is_mtilde_power tilde"),
        ("counts", "counts CountInvariantError CountRecord count_irreducible"
                   " count_mpower_pairs count_mtilde_scim count_pairs count_record"
                   " count_scim s_prime s_tilde_prime"),
        ("series", "series Series SeriesInvariantError binom_factor euler_factor"
                   " group_order_GL group_order_U"),
        ("genfun", "genfun Family Kind SeriesRequest cyc_class_series cyc_elem_series"
                   " sep_class_series sep_elem_series series_for ss_class_series"
                   " ss_elem_series"),
        ("oracle", "oracle ConjugacyDatum GroupTable MatrixClassKind MatrixRep"
                   " OracleInvariantError block_matrix build_group char_poly companion"
                   " datum_of gl_class_data group_table power_image_counts"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # a relative import by `__import__`, unlike `importlib.import_module`,
    # is reported by `python -X importtime`
    mod = __import__(module, globals(), level=1)
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
