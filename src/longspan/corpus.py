"""Documents, JSONL corpora, vocabularies, and a seeded synthetic generator.

Corpus files are UTF-8 JSON lines.  Each record carries:

* ``id``        -- optional string identifier
* ``sentences`` -- array of sentences, each either a raw string or an
  array of tokens
* ``reference`` -- optional reference summary (string or token array)

Sentence indices are 0-based everywhere in this package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import FormatError, InputError
from .metrics import tokenize

@dataclass
class Document:
    """Ordered sentences of word tokens."""

    sentences: list[list[str]]
    id: str | None = None

    def __post_init__(self):
        if not self.sentences:
            raise InputError("document has no sentences")
        if not all(map(len, self.sentences)):
            raise InputError("document contains an empty sentence")

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)


@dataclass
class Example:
    """A document optionally paired with its reference summary tokens."""

    doc: Document
    reference: list[str] | None = None


def example_from_record(record: dict, line_no: int | None = None) -> Example:
    """Build an Example from one parsed JSONL record."""
    where = f"line {line_no}: " if line_no is not None else ""
    if not isinstance(record, dict):
        raise FormatError(f"{where}expected a JSON object")
    raw_sentences = record.get("sentences")
    if not isinstance(raw_sentences, list) or not raw_sentences:
        raise FormatError(f"{where}'sentences' must be a non-empty array")
    sentences: list[list[str]] = []
    for s in raw_sentences:
        if isinstance(s, str):
            toks = tokenize(s)
        elif isinstance(s, list) and all(map(isinstance, s, repeat(str))):
            toks = list(filter(None, s))
        else:
            raise FormatError(f"{where}each sentence must be a string or array of tokens")
        if toks:
            sentences.append(toks)
    if not sentences:
        raise FormatError(f"{where}no non-empty sentences")
    doc_id = record.get("id")
    if doc_id is not None:
        doc_id = str(doc_id)
    doc = Document(sentences, id=doc_id)  # cannot raise: no sentence is empty
    reference = record.get("reference")
    if reference is None:
        ref_tokens = None
    elif isinstance(reference, str):
        ref_tokens = tokenize(reference)
    elif isinstance(reference, list) and all(map(isinstance, reference, repeat(str))):
        ref_tokens = list(reference)
    else:
        raise FormatError(f"{where}'reference' must be a string or array of tokens")
    return Example(doc, ref_tokens)


def iter_jsonl(path, on_error: Callable[[int, FormatError], None] | None = None
               ) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, record) pairs of the non-blank lines.

    A file that cannot be opened raises FormatError.  A line that is not
    UTF-8 JSON raises FormatError or, given ``on_error``, is passed to it
    as ``(line_no, error)`` and skipped.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else "not UTF-8"
                error = FormatError(f"line {line_no}: invalid JSON ({reason})")
                if on_error is None:
                    raise error from exc
                on_error(line_no, error)
                continue
            yield line_no, record


def load_corpus(path) -> list[Example]:
    """Strict loader: any malformed line raises.  ``select`` reads
    :func:`iter_jsonl` itself to keep going past bad lines."""
    return [example_from_record(record, line_no) for line_no, record in iter_jsonl(path)]


def write_jsonl(path, records: Iterable) -> None:
    """Write one UTF-8 JSON line per record: the writing twin of :func:`iter_jsonl`."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_corpus(path, examples: Iterable[Example]) -> None:
    write_jsonl(path, ({"id": ex.doc.id, "sentences": ex.doc.sentences}
                       | ({} if ex.reference is None else {"reference": " ".join(ex.reference)})
                       for ex in examples))


class Vocab:
    """Token <-> id map with fixed special ids (pad=0, bos=1, eos=2, unk=3)."""

    PAD, BOS, EOS, UNK = 0, 1, 2, 3
    SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")

    def __init__(self, tokens: Iterable[str]):
        self.tokens = list(self.SPECIALS) + [t for t in tokens if t not in self.SPECIALS]
        if len(set(self.tokens)) != len(self.tokens):
            raise InputError("vocabulary contains duplicate tokens")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, examples: Iterable[Example]) -> "Vocab":
        """Deterministic vocabulary: sorted unique tokens of docs and references."""
        seen: set[str] = set()
        for ex in examples:
            for sentence in ex.doc.sentences:
                seen.update(sentence)
            if ex.reference:
                seen.update(ex.reference)
        return cls(sorted(seen))

    def encode(self, tokens: Iterable[str]) -> list[int]:
        unk = self.UNK
        return [self.index.get(t, unk) for t in tokens]

    def to_list(self) -> list[str]:
        """The tokens after the specials; ``Vocab(to_list())`` rebuilds this vocabulary."""
        return list(self.tokens[len(self.SPECIALS):])


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

_FILLER = [f"filler{i:02d}" for i in range(30)]
_TOPIC = [f"topic{i:02d}" for i in range(24)]
_RELEVANT_PER_DOC = (2, 3)  # planted relevant sentences per document, min..max


def make_synthetic_corpus(
    n_docs: int,
    seed: int,
    n_sentences: tuple[int, int] = (6, 10),
    words_per_sentence: tuple[int, int] = (4, 8),
) -> list[Example]:
    """Seeded corpus with planted relevant sentences.

    Relevant sentences embed a run of topic tokens that the reference
    repeats verbatim; all other sentences use a disjoint filler
    vocabulary, so bigram recall against the reference is positive
    exactly on the planted sentences.
    """
    if n_docs < 1:
        raise InputError("n_docs must be >= 1")
    for name, (low, high) in (("sentence count", n_sentences),
                              ("sentence length", words_per_sentence)):
        if not 1 <= low <= high:
            raise InputError(f"{name} range needs 1 <= min <= max, got {low}..{high}")
    rng = np.random.default_rng(seed)
    examples = []
    for d in range(n_docs):
        n_sent = int(rng.integers(n_sentences[0], n_sentences[1] + 1))
        n_rel = min(int(rng.integers(_RELEVANT_PER_DOC[0], _RELEVANT_PER_DOC[1] + 1)), n_sent)
        relevant = sorted(rng.choice(n_sent, size=n_rel, replace=False).tolist())
        sentences: list[list[str]] = []
        reference: list[str] = []
        for i in range(n_sent):
            length = int(rng.integers(words_per_sentence[0], words_per_sentence[1] + 1))
            filler = [_FILLER[j] for j in rng.integers(0, len(_FILLER), size=length)]
            if i in relevant:
                run_len = min(3, length)
                start_tok = int(rng.integers(0, len(_TOPIC) - run_len))
                run = _TOPIC[start_tok : start_tok + run_len]
                pos = int(rng.integers(0, length - run_len + 1))
                sentence = filler[:pos] + run + filler[pos + run_len :]
                reference.extend(run)
            else:
                sentence = filler
            sentences.append(sentence)
        examples.append(Example(Document(sentences, id=f"doc{d:04d}"), reference))
    return examples
