"""The known-answer checker must count a wrong expectation as a failure.

    python3 -m pytest bench
"""

import copy

import run
from checker import check, parse_text_report
from workloads import build_jobs


def _point_affine_jobs():
    jobs = [j for j in build_jobs("audit", 0) if j.argv[-2:] == ["solve", "point-affine"]]
    return [j for j in jobs if "--alpha" not in " ".join(j.argv)]


def test_hand_written_answers_pass_in_both_formats():
    cli = run.load_cli()
    for job in _point_affine_jobs():
        code, out, _err, _s = run.run_job(cli, job.argv)
        assert check(job.expect, run._fmt(job), code, out) == []


def test_wrong_expectation_counts_as_failed():
    cli = run.load_cli()
    good = _point_affine_jobs()
    wrong = []
    for job in good:
        for mutate in (
            lambda e: e.fields.update({"result.derived_scaling_weight": "3"}),
            lambda e: e.claims.update({"point algebra dimension": False}),
            lambda e: setattr(e, "exit", 1),
        ):
            bad = copy.deepcopy(job)
            mutate(bad.expect)
            wrong.append(bad)
    tally = run.Tally()
    run.run_pass(cli, good + wrong, tally)
    assert tally.attempted == len(good) + len(wrong)
    assert tally.failed == len(wrong)


def test_text_reports_parse_to_the_json_shape():
    text = "\n".join([
        "== jetlie normalize ==",
        "config: alpha=sym beta=sym max_order=12 interp=third seed=0",
        "result:",
        "  mode: 2d",
        "  representative:",
        "    - v1",
        "    - v3",
        "  final_pair:",
        "    -",
        "      - 1",
        "      - 0",
        "  witness:",
        "derived vs claimed:",
        "  [up to eps -> -eps] map F1: (c1, c3): claimed as printed; derived (c1 - eps*c3)",
    ])
    report = parse_text_report(text)
    assert report["command"] == "normalize"
    assert report["result"] == {
        "mode": "2d", "representative": ["v1", "v3"], "final_pair": [["1", "0"]], "witness": [],
    }
    assert report["claims"] == [{
        "name": "map F1: (c1, c3)", "claimed": "as printed",
        "derived": "(c1 - eps*c3)", "agrees": "up to eps -> -eps",
    }]
