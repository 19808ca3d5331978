"""Tests for the Table 1 transparency experiment."""

import pytest

from repro.bench.table1 import ORIGINAL_SNIPPET, M3_SNIPPET, count_changed_lines, run_table1


class TestTable1:
    def test_only_one_line_changes(self):
        assert count_changed_lines(ORIGINAL_SNIPPET, M3_SNIPPET) == 1

    def test_identical_programs_change_nothing(self):
        assert count_changed_lines(ORIGINAL_SNIPPET, ORIGINAL_SNIPPET) == 0

    def test_transparency_experiment(self, tmp_path):
        result = run_table1(tmp_path, n_samples=600, n_features=20)
        assert result.lines_changed == 1
        assert result.total_lines == 3
        assert result.max_coef_difference < 1e-10
        assert result.predictions_identical is True
        assert result.transparent is True
        assert result.in_memory_accuracy == pytest.approx(result.mmap_accuracy)
        assert result.in_memory_accuracy > 0.9
