"""The benchmark's output checker accepts real reports and rejects corrupted ones.

    python3 -m pytest perfbench/test_check.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
from crclass import cli  # noqa: E402


def _item(workload, name):
    return next(i for i in inputs.make_inputs(workload, 1) if i["name"] == name)


def _outputs(tmp_path, item):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(item["spec"]))
    results = {}
    for k, argv in enumerate(item["ops"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "--input", str(path), *argv[1:]])
        results[(0, k)] = (code, out.getvalue(), err.getvalue())
    return results


def _problems(item, results):
    return check.check_outputs("test", 1, [item], results)


def _corrupt(results, op_index, edit):
    code, out, err = results[(0, op_index)]
    doc = json.loads(out)
    edit(doc)
    bad = dict(results)
    bad[(0, op_index)] = (code, json.dumps(doc, indent=2) + "\n", err)
    return bad


CASES = {
    "flip_verdict": ("rigid1c", "beloshapka", 0,
                     lambda d: d.update(verdict="ClassIII1")),
    "flip_bracket_rank": ("rigid1c", "beloshapka", 0,
                          lambda d: d["ranks"]["generic"].update({"L,Lb,T,[L,T],[Lb,T]": 3})),
    "flip_point_rank": ("rigid1c", "random_1_3_0", 0,
                        lambda d: d["ranks"]["at_point"].update({"L,Lb,T": 5 - d["ranks"]["at_point"]["L,Lb,T"]})),
    "flip_levi_rank": ("levi21", "tube", 1, lambda d: d.update(generic_rank=2)),
    "flip_levi_verdict": ("levi21", "random0", 0, lambda d: d.update(verdict="LeviFlat")),
    "alter_levi_entry": ("levi21", "sphere", 1,
                         lambda d: d["matrix"][0].__setitem__(0, f"({d['matrix'][0][0]}) + 1")),
    "alter_bracket_field": ("rigid1c", "model_iii2", 1,
                            lambda d: d["fields"].update(T="(2) d/du1")),
    "flip_hull_rank": ("rigid1c", "model_iii2", 3,
                       lambda d: d["ranks_by_depth"].__setitem__(3, 4)),
}


@pytest.mark.parametrize("workload,name", sorted({c[:2] for c in CASES.values()}))
def test_real_reports_pass(tmp_path, workload, name):
    item = _item(workload, name)
    assert _problems(item, _outputs(tmp_path, item)) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_report_is_rejected(tmp_path, case):
    workload, name, op_index, edit = CASES[case]
    item = _item(workload, name)
    results = _outputs(tmp_path, item)
    assert _problems(item, _corrupt(results, op_index, edit))


def test_unexpected_failure_is_rejected(tmp_path):
    item = _item("levi21", "tube")
    results = _outputs(tmp_path, item)
    results[(0, 0)] = (1, "", "error: something else\n")
    assert _problems(item, results)


def test_known_levi_fault_is_allowed_only_where_predicted(tmp_path):
    item = _item("rigid1c", "heisenberg")
    results = _outputs(tmp_path, item)
    assert results[(0, 2)][0] == 1  # levi on n = 1 exits 1 today
    assert _problems(item, results) == []
    flat = _item("rigid1c", "flat")
    assert not check.expected_failure(flat, ["levi", "--json"])
