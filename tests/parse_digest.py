"""Parse digest: one SHA-256 over what ``parse_cpnet`` returns for a seeded
corpus of net texts, to show that two versions of the parser agree.

    python tests/parse_digest.py SEED

The corpus holds 40,704 texts:

- the 8 fixtures and the ``MALFORMED`` texts of ``tests/test_dsl.py``;
- 74 nets from ``perfbench/netgen.py``: 24 chains, 24 trees and 23 DAGs of
  2-12 variables, two 500-variable DAGs with a parent window of 20, and a
  3000-variable chain declared child first;
- 2,000 of those nets rewritten with other whitespace (tabs, form feeds,
  CRLF line ends, ideographic spaces), trailing comments, blank lines,
  shuffled statements, and now and then a keyword used as a name, a
  statement split across lines, or two statements on one line;
- 20,600 of those nets with 1-6 seeded token insertions, deletions,
  replacements and duplications;
- 6,000 token-soup texts, 5,000 random-byte texts decoded both as Latin-1
  and as UTF-8 with replacement, and 2,000 texts with Unicode noise (NEL,
  separators, astral and surrogate code points).

It prints the digest of every ``repr((diagnostics, variables, tables))`` in
that order, the number of texts, how many had diagnostics, and how many were
read by the line reader and how many by the tokenizer (a text that calls
``dsl._tokenize`` counts as tokenized).  It exits 1 if any of those three
counts is 0 (``REACH``), or if the seed is in ``PINNED`` and its digest is
not the pinned one.  The script is stdlib-only and is not collected by
pytest.  ``tests/transcript.py`` parses a slice of the same corpus, every
kind of text at a hundredth of its count.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import random
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[:,|=>]")
SPACES = (" ", "  ", "\t", "\x0c", "\r", "\u3000", "\xa0")
# what the corpus must reach: texts read by each reader, and refused ones
REACH = ("read by the line reader", "read by the tokenizer", "with diagnostics")
# seed -> the digest the parser must print for it
PINNED = {1: {"parse": "a1ba6c96fa5fbf2594f251ae7e9d2e030c9eecafd9d08b2ea3277cf970f2f820"}}
NOISE = ("\x85", "\x1c", "\u2028", "\u3000", "\U0001f600", "\ud800", "\udfff", "\x00", "\xe9")


def _malformed() -> list[str]:
    """The ``MALFORMED`` list of ``tests/test_dsl.py``, read without pytest."""
    tree = ast.parse((ROOT / "tests" / "test_dsl.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MALFORMED":
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_dsl.py has no MALFORMED list")


def _nets(rng: random.Random) -> list[str]:
    import netgen

    specs = [netgen.chain(rng, rng.randint(2, 12)) for _ in range(24)]
    specs += [netgen.tree(rng, rng.randint(2, 12)) for _ in range(24)]
    specs += [netgen.dag(rng, rng.randint(2, 12)) for _ in range(23)]
    specs += [netgen.dag(rng, 500, window=20) for _ in range(2)]
    specs.append(netgen.child_first_chain(rng, 3000))
    return [spec.text() for spec in specs]


def _join(rng: random.Random, words: list[str]) -> str:
    """The words of one statement with random whitespace between them, and
    some whitespace between two names."""
    out = [words[0]]
    for before, word in zip(words, words[1:]):
        names = before.isidentifier() and word.isidentifier()
        out.append(rng.choice(SPACES if names else ("",) + SPACES) + word)
    return "".join(out)


def _reformat(rng: random.Random, text: str) -> str:
    statements = [WORD_RE.findall(line) for line in text.splitlines() if line.strip()]
    if rng.random() < 0.3:
        rng.shuffle(statements)
    if statements and rng.random() < 0.05:  # a keyword used as a name throughout
        words = rng.choice(statements)
        old, keyword = words[rng.randrange(1, len(words))], rng.choice(("var", "parents", "cpt"))
        if old.isidentifier():
            statements = [[keyword if w == old else w for w in ws] for ws in statements]
    lines = []
    for words in statements:
        line = rng.choice(("", " ", "\t")) + _join(rng, words) + rng.choice(("", " ", "\t"))
        if rng.random() < 0.1:
            line += rng.choice(("#", " # note", "\t#var A: a > b", "# \xe9"))
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "   ", "# comment", "\t# var X: y")))
    if lines and rng.random() < 0.1:  # a statement split across lines
        k = rng.randrange(len(lines))
        lines[k] = lines[k].replace(": ", ":\n", 1)
    if len(lines) > 1 and rng.random() < 0.1:  # two statements on one line
        k = rng.randrange(len(lines) - 1)
        lines[k:k + 2] = [lines[k] + " " + lines[k + 1]]
    end = rng.choice(("\n", "\r\n", ""))
    return end.join(lines) + end


def _mutate(rng: random.Random, text: str) -> str:
    tokens = [t for line in text.splitlines() for t in (*WORD_RE.findall(line), "\n")]
    vocab = sorted(set(tokens)) + ["var", "parents", "cpt", "#", "@", "0bad", "\n"]
    for _ in range(rng.randint(1, 6)):
        op, k = rng.randrange(4), rng.randrange(len(tokens) + 1)
        if op == 0 or not tokens:
            tokens.insert(k, rng.choice(vocab))
        elif op == 1:
            del tokens[min(k, len(tokens) - 1)]
        elif op == 2:
            tokens[min(k, len(tokens) - 1)] = rng.choice(vocab)
        else:
            k = min(k, len(tokens) - 1)
            tokens[k:k] = tokens[k:k + rng.randint(1, 8)]
    return " ".join(tokens).replace(" \n ", "\n")


def _soup(rng: random.Random) -> str:
    vocab = ["var", "parents", "cpt", "A", "B", "C", "a", "b", "abar", ":", ",", "|", "=",
             ">", "\n", "#", "@"]
    return "".join(rng.choice(vocab) + rng.choice(("", " ", "\n"))
                   for _ in range(rng.randint(0, 40)))


def _noise(rng: random.Random, base: str) -> str:
    chars = list(base[:200])
    for _ in range(rng.randint(1, 8)):
        chars.insert(rng.randrange(len(chars) + 1), rng.choice(NOISE))
    return "".join(chars)


def corpus(seed: int, share: float = 1) -> list[str]:
    """The texts listed in the module docstring; with ``share`` below 1, the
    fixtures, malformed texts and generated nets, then that share of each
    kind of derived text."""
    rng = random.Random(seed)

    def count(n: int) -> range:
        return range(round(n * share))

    fixtures = sorted((ROOT / "tests" / "fixtures").glob("*.cpnet"))
    texts = [path.read_text(encoding="utf-8") for path in fixtures]
    texts += _malformed()
    nets = _nets(rng)
    texts += nets
    small = [text for text in nets if len(text) < 20_000]
    texts += [_reformat(rng, rng.choice(small)) for _ in count(2000)]
    texts += [_mutate(rng, rng.choice(small if rng.random() < 0.99 else nets))
              for _ in count(20_600)]
    texts += [_soup(rng) for _ in count(6000)]
    for _ in count(5000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        texts += [blob.decode("latin-1"), blob.decode("utf-8", errors="replace")]
    texts += [_noise(rng, rng.choice(small)) for _ in count(2000)]
    return texts


def record(result) -> bytes:
    """What the digest hashes of one parse: its diagnostics, variables and tables."""
    net = result.net
    return repr((result.diagnostics, net.variables, net.tables)).encode(
        "utf-8", errors="backslashreplace")


def digest(seed: int) -> tuple[str, int, Counter]:
    """The SHA-256 over the parse of every text, the number of texts, and how
    many had diagnostics and how many each reader took."""
    from cpnet import dsl

    tokenized = []
    tokenize = dsl._tokenize

    def counting(*args):
        tokenized.append(True)
        return tokenize(*args)

    texts = corpus(seed)
    counts: Counter = Counter()
    sha = hashlib.sha256()
    dsl._tokenize = counting
    try:
        for text in texts:
            tokenized.clear()
            result = dsl.parse_cpnet(text)
            sha.update(record(result))
            counts["read by the tokenizer" if tokenized else "read by the line reader"] += 1
            counts["with diagnostics"] += bool(result.diagnostics)
    finally:
        dsl._tokenize = tokenize
    return sha.hexdigest(), len(texts), counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int, help="seed of the corpus")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's parser
    sys.path.insert(0, str(ROOT / "perfbench"))  # the net generator
    from helpers import coverage_exit, pinned_exit

    hexdigest, total, counts = digest(args.seed)
    print(f"seed {args.seed}: {total} texts, sha256 {hexdigest}")
    for label, count in sorted(counts.items()):
        print(f"  {label}: {count}")
    return coverage_exit(counts, REACH) | pinned_exit(args.seed, {"parse": hexdigest}, PINNED)


if __name__ == "__main__":
    sys.exit(main())
