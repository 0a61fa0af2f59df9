"""Command-line interface: exit codes, JSON round trips, SVG output."""

import json

from crystref.cli import run


def test_info_and_exit_codes(capsys):
    assert run(["info", "[G(6,3,2)]_2"]) == 0
    out = capsys.readouterr().out
    assert "[G(6,3,2)]_2" in out and "Z[2x]" in out
    assert run(["info", "[G(9,9,9)]_1"]) == 2
    assert run(["info", "G(6,3,2):2"]) == 0


def test_info_json_round_trip(capsys):
    assert run(["info", "[G(2,1,3)]^a_5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["name"] == "[G(2,1,3)]^a_5"
    assert data["steinberg"] is False
    assert data["lattice"]["rank"] == 6
    assert "counterexample" in data


def test_counterexample_command(capsys):
    assert run(["counterexample", "[G(6,3,2)]_2"]) == 0
    assert "PASS" in capsys.readouterr().out
    # a group satisfying the property is a usage error here
    assert run(["counterexample", "[G(4,1,2)]_1"]) == 2


def test_check_command(capsys):
    assert run(["check", "[G(4,1,2)]_2", "-B", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["violation_count"] == 0 and data["exhaustive"]
    # violations in a failing group are expected: still exit 0
    assert run(["check", "[G(3,1,2)]_2", "-B", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["violation_count"] > 0
    assert data["mismatch"] is False


def test_check_refuses_grid_too_large_to_sample(capsys):
    # the bound-10**8 box has more elements than random.sample can index
    assert run(["check", "[G(4,1,2)]_2", "-B", "100000000",
                "--budget", "10"]) == 2
    assert "too large" in capsys.readouterr().err


def test_negative_bound_or_budget_below_one_is_a_usage_error(capsys):
    # so is a window radius that is not a non-negative rational
    for argv in (["check", "[G(4,1,2)]_2", "--budget", "-1"],
                 ["check", "[G(4,1,2)]_2", "--budget", "0"],
                 ["check", "[G(4,1,2)]_2", "-B", "-2"],
                 ["check", "[G(6,6,3)]_1", "--show-violations", "-1",
                  "--json"],
                 ["table", "-B", "-1"],
                 ["reflections", "[G(4,1,1)]_1", "-R", "abc"],
                 ["reflections", "[G(4,1,1)]_1", "-R", "1/0"],
                 ["reflections", "[G(4,1,1)]_1", "--window=-1/2"],
                 ["plot", "[G(4,1,1)]_1", "-R", "abc"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "must be at least" in captured.err, argv


def test_reflections_command(capsys):
    assert run(["reflections", "[G(6,2,2)]_2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    forms = {f["form"] for f in data["families"]}
    assert "x1" in forms and "x1 - x2" in forms
    assert run(["reflections", "[G(4,1,1)]_1", "-R", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["window"]["hyperplane_points"]) == 81


def test_plot_command(tmp_path, capsys):
    out = tmp_path / "win.svg"
    assert run(["plot", "[G(4,1,1)]_1", "-R", "2", "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count('r="5"') == 25      # lattice dots
    assert svg.count('r="2"') == 81      # mirror dots
    assert 'viewBox="-250.0 -250.0 500.0 500.0"' in svg
    assert run(["plot", "[G(4,1,2)]_1", "--out", str(out)]) == 2


def test_plot_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "win.svg"
    assert run(["plot", "[G(4,1,1)]_1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot write" in captured.err
    assert not out.parent.exists()


def test_oversized_rank1_window_is_a_usage_error(tmp_path, capsys):
    # the candidate count is checked before any list is built: at -R 1000
    # these windows have tens of millions of candidates, and fail at once
    out = tmp_path / "win.svg"
    for argv in (["plot", "[G(3,1,1)]_1", "-R", "1000", "--out", str(out)],
                 ["reflections", "[G(6,1,1)]_1", "-R", "1000", "--json"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "over the cap 100000" in captured.err
    assert not out.exists()


def test_table_command_sampled(capsys):
    # a small budget keeps the run quick; verdicts still match the tables
    assert run(["table", "--budget", "3000", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_match"] is True
    assert len(data["rows"]) == 31
    by_name = {r["group"]: r for r in data["rows"]}
    assert by_name["[G(6,3,2)]_2"]["computed"] is False
    assert by_name["[G(6,3,2)]_2"]["method"] == "counterexample"
    assert by_name["[G(4,2,2)]_3"]["computed"] is True


def test_usage_error_exit_code():
    assert run(["definitely-not-a-command"]) == 2
