"""CLI failure-policy tests: exit codes, --on-error, --max-retries.

Exit-code contract (DESIGN.md "Failure model"): input error -> 2,
model/numerical error -> 3, partial success -> 0 + warning on stderr.
Uses a stubbed model loader so no training is needed.
"""

import json

import pytest

import repro.cli as cli
from repro.core.extractor import ExtractorConfig
from repro.runtime.errors import NumericalError
from repro.runtime.resilience import MAX_BLOCK_CHARS


class StubCliExtractor:
    """Stands in for a loaded WeakSupervisionExtractor."""

    def __init__(self, fail_texts=(), fail_first_n_batches=0, error=None):
        self.config = ExtractorConfig()
        self.last_run_stats = None
        self.fail_texts = set(fail_texts)
        self.remaining_batch_failures = fail_first_n_batches
        self.error = error or ValueError("model exploded")

    def _maybe_fail(self, text):
        if any(marker in text for marker in self.fail_texts):
            raise self.error

    def extract(self, text):
        self._maybe_fail(text)
        return {field: "v" for field in self.config.fields}

    def extract_batch(self, texts):
        if self.remaining_batch_failures > 0:
            self.remaining_batch_failures -= 1
            raise self.error
        for text in texts:
            self._maybe_fail(text)
        return [self.extract(text) for text in texts]


@pytest.fixture
def stub_loader(monkeypatch):
    def install(stub):
        monkeypatch.setattr(
            cli.WeakSupervisionExtractor,
            "load",
            classmethod(lambda _cls, _directory: stub),
        )
        return stub

    return install


def run_extract(args):
    return cli.main(["extract", "--model", "unused", *args])


class TestExitCodes:
    def test_missing_model_is_input_error(self, tmp_path, capsys):
        code = cli.main(
            ["extract", "--model", str(tmp_path / "nope"), "--text", "x"]
        )
        assert code == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_model_error_maps_to_3(self, stub_loader, capsys):
        stub_loader(StubCliExtractor(fail_texts=["BAD"]))
        assert run_extract(["--text", "BAD input"]) == 3
        assert "ModelError" in capsys.readouterr().err

    def test_numerical_error_maps_to_3(self, stub_loader, capsys):
        stub_loader(
            StubCliExtractor(
                fail_texts=["BAD"],
                error=NumericalError("nan in logits", stage="forward"),
            )
        )
        assert run_extract(["--text", "BAD input"]) == 3
        assert "NumericalError" in capsys.readouterr().err

    def test_oversized_input_is_input_error(self, stub_loader, capsys):
        stub_loader(StubCliExtractor())
        code = run_extract(["--text", "x" * (MAX_BLOCK_CHARS + 1)])
        assert code == 2
        assert "InputError" in capsys.readouterr().err

    def test_empty_input_file_is_input_error(
        self, stub_loader, tmp_path, capsys
    ):
        stub_loader(StubCliExtractor())
        source = tmp_path / "empty.txt"
        source.write_text("\n\n")
        assert run_extract(["--input", str(source)]) == 2

    def test_clean_run_exits_zero(self, stub_loader, capsys):
        stub_loader(StubCliExtractor())
        assert run_extract(["--text", "Reduce waste by 20%."]) == 0
        out = capsys.readouterr()
        payload = json.loads(out.out.strip())
        assert payload["details"]
        assert "status" not in payload  # raise mode keeps legacy output
        assert "warning" not in out.err


class TestOnErrorPolicies:
    def input_file(self, tmp_path):
        source = tmp_path / "objectives.txt"
        source.write_text("good one 20%\nBAD apple\nanother good 30%\n")
        return source

    def test_skip_drops_failed_inputs_with_warning(
        self, stub_loader, tmp_path, capsys
    ):
        stub_loader(StubCliExtractor(fail_texts=["BAD"]))
        code = run_extract(
            ["--input", str(self.input_file(tmp_path)), "--on-error", "skip"]
        )
        out = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in out.out.strip().splitlines()]
        assert [line["objective"] for line in lines] == [
            "good one 20%",
            "another good 30%",
        ]
        assert all(line["status"] == "ok" for line in lines)
        assert "1 input(s) skipped" in out.err

    def test_degrade_emits_flagged_empty_details(
        self, stub_loader, tmp_path, capsys
    ):
        stub_loader(StubCliExtractor(fail_texts=["BAD"]))
        code = run_extract(
            [
                "--input", str(self.input_file(tmp_path)),
                "--on-error", "degrade",
            ]
        )
        out = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in out.out.strip().splitlines()]
        assert len(lines) == 3  # every input yields a line
        statuses = [line["status"] for line in lines]
        assert statuses == ["ok", "degraded", "ok"]
        failed = lines[1]
        assert all(value == "" for value in failed["details"].values())
        assert "1 degraded" in out.err

    def test_max_retries_recovers_flaky_model(
        self, stub_loader, tmp_path, capsys
    ):
        stub = stub_loader(StubCliExtractor(fail_first_n_batches=2))
        code = run_extract(
            [
                "--input", str(self.input_file(tmp_path)),
                "--max-retries", "2",
            ]
        )
        out = capsys.readouterr()
        assert code == 0
        assert stub.remaining_batch_failures == 0
        assert len(out.out.strip().splitlines()) == 3
        assert "warning" not in out.err

    def test_raise_mode_fails_whole_run(self, stub_loader, tmp_path, capsys):
        stub_loader(StubCliExtractor(fail_texts=["BAD"]))
        code = run_extract(["--input", str(self.input_file(tmp_path))])
        assert code == 3


class TestJournaledParity:
    """``--run-dir`` runs the same ladder, statuses and retries."""

    def input_file(self, tmp_path):
        source = tmp_path / "objectives.txt"
        source.write_text("good one 20%\nBAD apple\nanother good 30%\n")
        return source

    def test_degrade_statuses_match_with_and_without_run_dir(
        self, stub_loader, tmp_path, capsys
    ):
        source = str(self.input_file(tmp_path))
        outputs = []
        for extra in ([], ["--run-dir", str(tmp_path / "run")]):
            stub_loader(StubCliExtractor(fail_texts=["BAD"]))
            code = run_extract(
                ["--input", source, "--on-error", "degrade", *extra]
            )
            out = capsys.readouterr()
            assert code == 0
            statuses = [
                json.loads(line)["status"]
                for line in out.out.strip().splitlines()
            ]
            outputs.append((statuses, out.err))
        plain, journaled = outputs
        assert plain == journaled
        assert plain[0] == ["ok", "degraded", "ok"]
        assert "1 degraded" in plain[1]

    def test_max_retries_recovers_under_run_dir(
        self, stub_loader, tmp_path, capsys
    ):
        stub = stub_loader(StubCliExtractor(fail_first_n_batches=2))
        code = run_extract(
            [
                "--input", str(self.input_file(tmp_path)),
                "--max-retries", "2",
                "--run-dir", str(tmp_path / "run"),
            ]
        )
        out = capsys.readouterr()
        assert code == 0
        assert stub.remaining_batch_failures == 0
        assert len(out.out.strip().splitlines()) == 3
        assert "warning" not in out.err
