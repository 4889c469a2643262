"""Tests for the `python -m repro.experiments` command-line interface."""

import pytest

from repro.experiments import __main__ as cli


class TestCli:
    def test_fig_target_runs_and_reports(self, capsys, monkeypatch):
        # shrink the figure so the CLI test stays fast
        import repro.experiments.figures as fg

        def tiny(key, *, seed, **_):
            return fg.run_figure(
                key, (2.0, 6.0), horizon=100.0, seed=seed,
                protocols=("realtor", "push-1"),
            )

        monkeypatch.setattr(cli, "run_figure", tiny)
        rc = cli.main(["fig5"])
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert rc in (0, 1)  # shape checks may flip at tiny horizons

    def test_ablation_target(self, capsys, monkeypatch):
        from repro.experiments import ablations as ab

        monkeypatch.setattr(
            cli, "run_study",
            lambda key, **kw: ab.run_study(key, policies=("one-shot",), horizon=100.0),
        )
        rc = cli.main(["a5"])
        out = capsys.readouterr().out
        assert "A5" in out
        assert rc == 0

    def test_unknown_target_errors(self, capsys):
        rc = cli.main(["fig99"])
        assert rc == 2
        assert "unknown target" in capsys.readouterr().err

    def test_unknown_target_rejected_before_anything_runs(self, capsys,
                                                          monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_study", lambda key, **kw: ran.append(key))
        assert cli.main(["a1", "fig99"]) == 2
        assert ran == []
        assert "unknown target: fig99" in capsys.readouterr().err

    def test_all_expands_to_every_figure(self):
        targets = cli.expand_targets(["all"])
        assert targets == ["fig5", "fig6", "fig7", "fig8", "fig9"]

    def test_store_flag_validation(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig5", "--resume"])  # --resume needs --store
        with pytest.raises(SystemExit):
            cli.main(["fig5", "--store", "x", "--resume", "--force"])

    def test_store_flag_threads_through_figures(self, tmp_path, capsys,
                                                monkeypatch):
        import repro.experiments.figures as fg

        seen = {}

        def tiny(key, *, seed, store, force, **_):
            seen["store"] = store
            seen["force"] = force
            return fg.run_figure(
                key, (2.0,), horizon=100.0, seed=seed,
                protocols=("realtor",), store=store, force=force,
            )

        monkeypatch.setattr(cli, "run_figure", tiny)
        rc = cli.main(["fig5", "--store", str(tmp_path)])
        assert rc in (0, 1)
        assert seen["store"] is not None and seen["force"] is False
        assert len(seen["store"]) == 1  # the sweep's cell persisted
        assert "[store]" in capsys.readouterr().err

        # second invocation opens the same directory and serves from cache
        rc = cli.main(["fig5", "--store", str(tmp_path), "--resume"])
        assert rc in (0, 1)
        err = capsys.readouterr().err
        assert "1 hits / 0 misses" in err

    def test_ablations_expands(self):
        targets = cli.expand_targets(["ablations"])
        assert set(targets) == {
            "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "b1", "b2", "b3", "b4", "b5",
        }

    def test_expand_targets_mixes_and_rejects(self):
        assert cli.expand_targets(["A5", "fig9", "b4"]) == ["a5", "fig9", "b4"]
        with pytest.raises(ValueError, match="unknown target: a9"):
            cli.expand_targets(["a1", "a9"])

    def test_flags_reach_study_targets(self, tmp_path, capsys):
        from repro.experiments.store import RunStore

        argv = ["a5", "--horizon", "50", "--seed", "3", "--store", str(tmp_path)]
        assert cli.main(argv) == 0
        assert "4 written" in capsys.readouterr().err
        records = [record for _, record in RunStore(tmp_path).records()]
        assert len(records) == 4
        for record in records:
            params = record["result"]["params"]
            assert params["horizon"] == 50 and params["seed"] == 3

        assert cli.main(argv) == 0
        assert "4 hits / 0 misses, 0 written" in capsys.readouterr().err
        assert cli.main(argv + ["--force"]) == 0
        assert "4 written" in capsys.readouterr().err

    def test_studies_keep_their_own_seed_unless_one_is_given(self, capsys,
                                                              monkeypatch):
        # B5's default seed is 7; only an explicit --seed may replace it
        from repro.experiments import ablations as ab

        seen = []

        def tiny(key, **kw):
            seen.append(kw)
            return ab.run_study(key, loss_rates=(0.0,), horizon=50.0)

        monkeypatch.setattr(cli, "run_study", tiny)
        assert cli.main(["b5"]) == 0
        assert cli.main(["b5", "--seed", "3"]) == 0
        assert "seed" not in seen[0] and seen[1]["seed"] == 3

    def test_help_lists_every_study(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "a1 a2 a3 a4 a5 a6 a7 a8 b1 b2 b3 b4 b5 | all | ablations" in out
