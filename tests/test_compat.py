"""The keyword-only entrypoints after their deprecation release.

``generate_msd_workload``, ``run_msd_comparison`` and ``figure_result``
accepted legacy positional arguments with a ``DeprecationWarning`` for
one release (1.0.0).  Since 1.1.0 positional use is a ``TypeError``, and
keyword calls behave exactly as before, without a warning.
"""

import warnings

import pytest

from repro.experiments import figure_result, run_msd_comparison
from repro.simulation import RandomStreams
from repro.workloads import MSDConfig, generate_msd_workload

POSITIONAL_CALLS = {
    "generate_msd_workload": lambda: generate_msd_workload(
        MSDConfig(n_jobs=6), RandomStreams(5)
    ),
    "run_msd_comparison": lambda: run_msd_comparison(7, 2),
    "figure_result": lambda: figure_result("fig6", None),
}


class TestShimmedEntrypoints:
    """The formerly shimmed entrypoints, with the shims removed."""

    @pytest.mark.parametrize("name", sorted(POSITIONAL_CALLS))
    def test_positional_call_is_type_error(self, name):
        with pytest.raises(TypeError, match="positional argument"):
            POSITIONAL_CALLS[name]()

    def test_keyword_calls_are_unchanged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jobs = generate_msd_workload(config=MSDConfig(n_jobs=6), streams=RandomStreams(5))
            again = generate_msd_workload(config=MSDConfig(n_jobs=6), streams=RandomStreams(5))
            comparison = run_msd_comparison(seed=7, n_jobs=2, schedulers=("fifo",))
        assert len(jobs) == 6
        assert [j.submit_time for j in jobs] == sorted(j.submit_time for j in jobs)
        assert [(j.profile.name, j.input_mb, j.submit_time) for j in jobs] == [
            (j.profile.name, j.input_mb, j.submit_time) for j in again
        ]
        assert comparison.seed == 7
        assert list(comparison.runs) == ["fifo"]

    def test_figure_result_name_stays_positional(self):
        # Single-positional ergonomics survive the migration: no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = figure_result("fig6")
        assert result is not None
