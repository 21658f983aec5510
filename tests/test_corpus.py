"""The shipped example corpus runs green in-process."""

from pathlib import Path

from vqcat.cli import main
from vqcat.corpus import DATA_FILES, load, run_corpus


def test_data_files_parse():
    for name in DATA_FILES:
        ws = load(name)
        assert ws.vcats


def test_run_corpus_green():
    code, lines = run_corpus(machine=True)
    assert code == 0
    assert lines[-1] == "corpus.ok=yes"


def test_text_mode_mentions_every_instance():
    _, lines = run_corpus(machine=False)
    text = "\n".join(lines)
    assert "[theorem.m3-two]" in text
    assert text.endswith("all checks passed")


def test_machine_output_matches_golden(capsys):
    # `vq corpus --machine` must stay byte-identical across refactors;
    # a change that alters it on purpose regenerates this file and says why
    golden = (Path(__file__).parent / "corpus_machine.txt").read_bytes()
    assert main(["corpus", "--machine"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden
