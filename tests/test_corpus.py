"""The shipped example corpus runs green in-process."""

from pathlib import Path

from vqcat import corpus, tensorprod
from vqcat.cli import main
from vqcat.corpus import DATA_FILES, load, run_corpus

GOLDEN = Path(__file__).parent / "corpus_machine.txt"


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
    golden = GOLDEN.read_bytes()
    assert main(["corpus", "--machine"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_universal_builds_one_tensor_product_per_factor_pair(monkeypatch):
    # 9 pairs of two-categories and the Lukasiewicz pair; 28 checks reuse them
    built = []
    build = tensorprod.build_tensor_product

    def counting(*args, **kwargs):
        built.append(args[:2])
        return build(*args, **kwargs)

    monkeypatch.setattr(corpus, "build_tensor_product", counting)
    monkeypatch.setattr(tensorprod, "build_tensor_product", counting)
    ok, recs = corpus._universal()
    assert len(built) == 10
    golden = [
        line for line in GOLDEN.read_text("utf-8").splitlines()
        if line.startswith("universal.small.")
    ]
    lines = [f"universal.small.{key}={value}" for key, value in recs]
    assert lines + [f"universal.small.ok={'yes' if ok else 'no'}"] == golden
