"""`scripts/sparse_survey.py` on its first three profiles."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("sparse_survey",
                                              ROOT / "scripts" / "sparse_survey.py")
sparse_survey = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sparse_survey)


def test_fresh_interpreter_matches_the_survey_in_process():
    record = sparse_survey.survey(ROOT, 3)
    assert record == sparse_survey.measure(3)
    assert record["profiles"] == 3 and record["failed"] == 0
    assert 0 < record["longest"] <= record["iterations"]
