"""Journal payloads of records: the explicit field copy is ``asdict``.

``record_to_payload`` copies the fields by hand instead of through
``dataclasses.asdict``'s recursive deep copy; its JSON must stay the
same bytes, key order included, and it must round-trip.
"""

import dataclasses
import json

from hypothesis import given, strategies as st

from repro.goalspotter.pipeline import (
    ExtractedRecord,
    record_from_payload,
    record_to_payload,
)

records = st.builds(
    ExtractedRecord,
    company=st.text(),
    report_id=st.text(),
    page=st.integers(0, 10_000),
    objective=st.text(),
    details=st.dictionaries(st.text(), st.text(), max_size=6),
    score=st.floats(allow_nan=False),
    status=st.sampled_from(["ok", "degraded", "failed"]),
    reporting_year=st.none() | st.integers(1990, 2100),
)


@given(records)
def test_payload_json_equals_asdict_json(record):
    assert json.dumps(record_to_payload(record)) == json.dumps(
        dataclasses.asdict(record)
    )


@given(records)
def test_payload_round_trips(record):
    payload = json.loads(json.dumps(record_to_payload(record)))
    assert record_from_payload(payload) == record


def test_details_are_copied():
    record = ExtractedRecord("Co", "r1", 0, "text", {"Action": "cut"}, 0.5)
    payload = record_to_payload(record)
    payload["details"]["Action"] = "changed"
    assert record.details == {"Action": "cut"}
