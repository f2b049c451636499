"""Seeded input generator: plain-text books and QA sets.

Books are paragraphs of 20-120 words drawn from a fixed, Zipf-weighted
vocabulary, with capitalized two-word names mixed in. Each QA pair's
supporting passage is a verbatim span of one paragraph, and its question
copies some of the passage's words: 4 in 5 questions copy many (the
retriever finds most of those), the rest copy few (it almost always misses),
so roughly half the gold passages rank in the top 10 and both the relevance
judge's hit path and its miss path run. 3 in 10 questions name someone from
their passage, which sends them down the RAG pipeline's mention route.

The vocabulary and names never change; only the drawing depends on the seed,
so equal seeds give byte-identical files.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate
from pathlib import Path

VOCABULARY_SIZE = 5000
NAME_COUNT = 150
NAME_RATE = 0.04
MENTION_EVERY = (3, 10)  # 3 questions in every 10 name someone
PASSAGE_WORDS = (30, 50)
STRONG_EVERY = (4, 5)  # 4 questions in every 5 copy many passage words
STRONG_OVERLAP_WORDS = 30
WEAK_OVERLAP_WORDS = 3

_ONSETS = "b c d f g h j k l m n p r s t v w z br cl dr gr pl st tr".split()
_VOWELS = "a e i o u ai ea ou".split()
_CODAS = ["", "", "n", "r", "s", "l", "m", "th", "nd"]


def _pseudo_word(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        for _ in range(syllables)
    )


def _fixed_lexicon() -> tuple[list[str], list[float], list[str]]:
    rng = random.Random(20240625)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCABULARY_SIZE:
        word = _pseudo_word(rng, rng.choice((1, 2, 2, 3)))
        if word not in seen and len(word) > 2:
            seen.add(word)
            words.append(word)
    weights = list(accumulate(1.0 / (rank + 10) for rank in range(VOCABULARY_SIZE)))
    names: list[str] = []
    while len(names) < NAME_COUNT:
        name = f"{_pseudo_word(rng, 2).capitalize()} {_pseudo_word(rng, 2).capitalize()}"
        if name not in names:
            names.append(name)
    return words, weights, names


WORDS, CUM_WEIGHTS, NAMES = _fixed_lexicon()


def make_paragraph(rng: random.Random) -> str:
    """One paragraph of 20-120 words in sentences of 6-16 words."""
    target = rng.randint(20, 120)
    tokens: list[str] = []
    sentences: list[str] = []
    while len(tokens) < target:
        length = min(rng.randint(6, 16), target - len(tokens))
        sentence: list[str] = []
        while len(sentence) < length:
            if rng.random() < NAME_RATE and length - len(sentence) >= 2:
                sentence.extend(rng.choice(NAMES).split())
            else:
                sentence.append(rng.choices(WORDS, cum_weights=CUM_WEIGHTS)[0])
        sentence[0] = sentence[0][0].upper() + sentence[0][1:]
        tokens.extend(sentence)
        sentences.append(" ".join(sentence) + ".")
    return " ".join(sentences)


def make_book(rng: random.Random, paragraphs: int) -> list[str]:
    return [make_paragraph(rng) for _ in range(paragraphs)]


def write_book(paragraphs: list[str], path: Path) -> None:
    path.write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")


def _bare(word: str) -> str:
    return word.rstrip(".").lower()


def make_question(
    rng: random.Random, doc_id: str, paragraphs: list[str], mention: bool, strong: bool
) -> dict:
    """One QA record whose passage is a verbatim span of a single paragraph."""
    while True:
        words = rng.choice(paragraphs).split(" ")
        if len(words) < PASSAGE_WORDS[0]:
            continue
        name_at = [
            i for i in range(len(words) - 1)
            if " ".join(w.rstrip(".") for w in words[i : i + 2]) in NAMES
        ]
        if mention and not name_at:
            continue
        length = min(len(words), rng.randint(*PASSAGE_WORDS))
        if mention:
            anchor = rng.choice(name_at)
            low = max(0, min(anchor + 2 - length, len(words) - length))
            begin = rng.randint(low, min(anchor, len(words) - length))
        else:
            begin = rng.randint(0, len(words) - length)
        span = words[begin : begin + length]
        names_in_span = {w.rstrip(".") for i in name_at for w in words[i : i + 2]}
        plain = [_bare(w) for w in span if w.rstrip(".") not in names_in_span]
        plain = list(dict.fromkeys(w for w in plain if w))
        if len(plain) < 4:
            continue
        overlap = STRONG_OVERLAP_WORDS if strong else WEAK_OVERLAP_WORDS
        cue = rng.sample(plain, min(overlap, len(plain)))
        answer_at = rng.randint(0, len(span) - 3)
        answer = " ".join(_bare(w) for w in span[answer_at : answer_at + 3])
        if mention:
            name = next(
                " ".join(w.rstrip(".") for w in words[i : i + 2])
                for i in name_at
                if begin <= i and i + 2 <= begin + length
            )
            question = f"What did {name} do about {' '.join(cue)}?"
        else:
            question = f"What is told about {' '.join(cue)}?"
        return {
            "doc_id": doc_id,
            "question": question,
            "answer": answer,
            "supporting_passage": " ".join(span),
        }


def make_qa(rng: random.Random, documents: dict[str, list[str]], count: int) -> list[dict]:
    """count QA records spread round-robin over the documents, questions unique.

    The shares of mention and strong-overlap questions are exact, not drawn,
    so the work a QA set causes varies little between seeds.
    """
    doc_ids = sorted(documents)
    records: list[dict] = []
    questions: set[str] = set()
    while len(records) < count:
        i = len(records)
        doc_id = doc_ids[i % len(doc_ids)]
        mention = i % MENTION_EVERY[1] < MENTION_EVERY[0]
        strong = i % STRONG_EVERY[1] < STRONG_EVERY[0]
        record = make_question(rng, doc_id, documents[doc_id], mention, strong)
        if record["question"] not in questions:
            questions.add(record["question"])
            records.append(record)
    return records


def write_qa(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
