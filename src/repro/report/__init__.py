"""Table and figure rendering for analysis results."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "figures": ("ascii_cdf", "cdf_series", "series_to_csv"),
        "tables": ("render_table", "render_table1", "render_table2", "render_table3"),
    },
)
