"""The paired-benchmark summarizer on synthetic run results."""

import importlib.util
import os
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(HERE, "..", "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
         {"name": "train_img_per_s", "unit": "img/s", "better": "higher", "bound": 0.25}]


def result(rss, img, failed=0, attempted=3):
    return {"failed": failed, "attempted": attempted,
            "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                        "train_img_per_s": {"value": img, "unit": "img/s"}}}


def test_medians_quartiles_and_wins():
    pairs = [(result(100, 10), result(90, 11)),
             (result(102, 10), result(90, 10)),       # throughput tie
             (result(104, 12), result(105, 11)),
             (result(106, 14), result(92, 15))]
    out = bench_pairs.summarize(pairs, SPECS)
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 103, "q1": 101.5, "q3": 104.5}
    assert rss["change"]["median"] == 91
    assert (rss["wins"], rss["losses"], rss["pairs"]) == (3, 1, 4)
    img = out["metrics"]["train_img_per_s"]
    assert (img["wins"], img["losses"]) == (2, 1)   # the tie counts for neither
    assert img["better"] == "higher" and img["unit"] == "img/s"


def test_failed_and_attempted_are_summed_per_side():
    pairs = [(result(1, 1, failed=1), result(1, 1)),
             ({"failed": 1, "attempted": 1, "metrics": {}}, result(1, 1, attempted=4))]
    out = bench_pairs.summarize(pairs, SPECS)
    assert (out["failed_parent"], out["attempted_parent"]) == (2, 4)
    assert (out["failed_change"], out["attempted_change"]) == (0, 7)
    # a run without metrics leaves its pair out of the comparison
    assert out["metrics"]["peak_rss_mb"]["pairs"] == 1


def test_failures_name_their_side_and_seed():
    ok = dict(result(1, 1), seed=7, failures=[])
    bad = dict(result(1, 1, failed=1), seed=8, failures=["final train_err 0.06 above 0.05"])
    crashed = {"failed": 1, "attempted": 1, "metrics": {}, "seed": 9,
               "failures": ["worker 1 exited with code 1"]}
    out = bench_pairs.summarize([(ok, bad), (crashed, ok)], SPECS)
    assert out["failures"] == [
        {"side": "parent", "seed": 9, "what": "worker 1 exited with code 1"},
        {"side": "change", "seed": 8, "what": "final train_err 0.06 above 0.05"}]
    assert bench_pairs.summarize([(result(1, 1), result(1, 1))], SPECS)["failures"] == []


def test_single_pair_spread_is_the_value():
    out = bench_pairs.summarize([(result(5, 2), result(4, 3))], SPECS)
    assert out["metrics"]["peak_rss_mb"]["change"] == {"median": 4, "q1": 4, "q3": 4}


def test_metric_missing_everywhere_is_omitted():
    out = bench_pairs.summarize([(result(5, 2), result(4, 3))],
                                SPECS + [{"name": "setup_s", "unit": "s", "better": "lower"}])
    assert "setup_s" not in out["metrics"]


def verdicts(parent, change):
    """Verdicts of (peak_rss_mb, train_img_per_s) over equal runs of both metrics."""
    pairs = [(result(p, p), result(c, c)) for p, c in zip(parent, change)]
    out = bench_pairs.summarize(pairs, SPECS)["metrics"]
    return out["peak_rss_mb"]["verdict"], out["train_img_per_s"]["verdict"]


def test_verdict_worse_beyond_the_bound_of_the_parent_median():
    # rss (lower better, bound 0.1): 100 -> 111 is worse, 100 -> 109 is not;
    # throughput (higher better, bound 0.25) reads the same runs the other way
    assert verdicts([100] * 4, [111] * 4) == ("worse", "ok")
    assert verdicts([100] * 4, [109] * 4) == ("ok", "ok")
    assert verdicts([100] * 4, [74] * 4) == ("ok", "worse")
    assert verdicts([100] * 4, [76] * 4) == ("ok", "ok")


def test_verdict_unresolved_when_either_side_spreads_wider_than_its_bound():
    # parent quartiles 95 and 115 (gap 20 > 0.1 x 105) against a tight change
    wide = [90, 100, 110, 120]
    assert verdicts(wide, [105] * 4)[0] == "unresolved"
    assert verdicts([105] * 4, wide)[0] == "unresolved"
    # gap 20 stays inside throughput's 0.25 x 105
    assert verdicts(wide, [105] * 4)[1] == "ok"


def test_verdict_ok_when_every_change_run_beats_every_parent_run():
    wide, lower = [90, 100, 110, 120], [40, 50, 60, 80]
    assert verdicts(wide, lower)[0] == "ok"           # lower rss is better
    assert verdicts(wide, [85] + lower[1:])[0] == "ok"
    assert verdicts(wide, [95] + lower[1:])[0] == "unresolved"   # 95 > 90
    assert verdicts(lower, wide)[1] == "ok"           # higher throughput is better


def test_metric_without_a_bound_has_no_verdict():
    spec = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
    out = bench_pairs.summarize([(result(5, 2), result(4, 3))], spec)
    assert "verdict" not in out["metrics"]["peak_rss_mb"]


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, capture_output=True, text=True, check=True).stdout.strip()


def test_trees_are_archived_side_by_side_from_two_revisions(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    commits = []
    for text in ("parent\n", "change\n"):
        (repo / "a.txt").write_text(text)
        _git(repo, "add", "a.txt")
        _git(repo, "commit", "-q", "-m", text)
        commits.append(_git(repo, "rev-parse", "HEAD"))
    (repo / "a.txt").write_text("uncommitted\n")
    (repo / "b.txt").write_text("untracked\n")
    out = tmp_path / "out"
    out.mkdir()
    trees = bench_pairs.build_trees(str(repo), "HEAD~1", str(out))
    assert [commit for _, commit in trees.values()] == commits
    assert trees["parent"][0] == str(out / "parent")
    assert len(trees["parent"][0]) == len(trees["change"][0])
    for (tree, _), text in zip(trees.values(), ("parent\n", "change\n")):
        assert sorted(os.listdir(tree)) == ["a.txt"]
        assert open(os.path.join(tree, "a.txt")).read() == text
