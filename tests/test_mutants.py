"""A seeded mutation test of the ``check`` and ``convert`` commands.

Serialized cat1, cat2 and crossed-square texts on a few small catalog
groups are mutated by token edits (-1, 0, a large value, a non-integer, an
empty token) and by deleted, duplicated and swapped lines.  Every mutant
goes through the command functions of ``catsq check`` and ``catsq convert``
in-process.  They turn a ``GroupError`` into exit status 2 and one message
line, so any other exception escapes them and fails the test, and a
rejected mutant must leave exactly one non-empty line on stderr.  The seed
and the count are fixed, so the mutants are the same on every run.
"""

import random
from argparse import Namespace

from catsq import catalog
from catsq.cat1 import cat1_isomorphism_classes
from catsq.cat2 import cat2_isomorphism_classes
from catsq.cli import cmd_check, cmd_convert
from catsq.serialize import emit_cat1, emit_cat2, emit_xsq
from catsq.xsq import crossed_square_of_cat2

KEYS = ((6, 1), (8, 3), (12, 3), (8, 5), (16, 11))
SEED, COUNT = 20260, 2000
TOKENS = ("-1", "0", "1000000007", "x", "1.5", "")
# check reports every rejection, a kind it cannot check included, as invalid
# input; convert reports each as an error
PREFIXES = {"check": ("invalid: ",), "convert": ("error: ",)}
COMMANDS = {"check": cmd_check, "convert": cmd_convert}


def source_texts():
    """Per group: the first and last cat1 and cat2 class representatives by
    catalog key, the last cat2 one with its table inline, and the crossed
    squares of the first and last cat2 representatives."""
    texts = []
    for key in KEYS:
        G = catalog.small_group(*key)
        cat1s = cat1_isomorphism_classes(G).representatives
        cat2s = cat2_isomorphism_classes(G).representatives
        texts += [emit_cat1(cat1s[0], key), emit_cat1(cat1s[-1], key),
                  emit_cat2(cat2s[0], key), emit_cat2(cat2s[-1], key), emit_cat2(cat2s[-1])]
        texts += [emit_xsq(crossed_square_of_cat2(C)) for C in (cat2s[0], cat2s[-1])]
    return texts


def mutate(text, rng):
    """One random edit of ``text``: a token replaced, or a line deleted,
    duplicated or swapped with another."""
    lines = text.split("\n")[:-1]
    a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
    edit = rng.choice(("token", "token", "delete", "duplicate", "swap"))
    if edit == "token":
        words = lines[a].split(" ")
        words[rng.randrange(len(words))] = rng.choice(TOKENS)
        lines[a] = " ".join(words)
    elif edit == "delete":
        del lines[a]
    elif edit == "duplicate":
        lines.insert(a, lines[a])
    else:
        lines[a], lines[b] = lines[b], lines[a]
    return "\n".join(lines) + "\n"


def test_mutants_fail_with_one_line_group_errors(tmp_path, capsys):
    rng = random.Random(SEED)
    texts = source_texts()
    path = tmp_path / "mutant.catsq"
    args = Namespace(file=str(path), output=None)
    rejected = 0
    for _ in range(COUNT):
        mutant = mutate(rng.choice(texts), rng)
        path.write_text(mutant)
        for command, run in COMMANDS.items():
            try:
                status = run(args)
            except Exception as exc:  # any escape is the failure; keep its traceback
                raise AssertionError(f"{command} raised {type(exc).__name__}: {exc}\n"
                                     f"on the mutant:\n{mutant}") from exc
            err = capsys.readouterr().err
            if status == 2:
                rejected += 1
                prefix = next((p for p in PREFIXES[command] if err.startswith(p)), None)
                message = err[len(prefix or ""):]
                assert (prefix and err.endswith("\n")
                        and message.strip() and "\n" not in message[:-1]), (
                    f"{command} gave {err!r} on the mutant:\n{mutant}")
            else:
                assert status in (0, 1) and err == "", (
                    f"{command} exited {status} with {err!r} on the mutant:\n{mutant}")
    # most edits break the syntax or an axiom, so the commands reject them
    assert rejected > COUNT
