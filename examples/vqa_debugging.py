"""Debugging a Visual Question Answering program — the Section 5.1 case study.

The VQA ProbLog program (paper Figure 5) answers "What is the building in
the background?" from image and question tuples.  This example replays the
paper's full debugging narrative:

- **Query 1A**: explain the winning answer ``ans("ID1","barn")``;
- **Query 1B**: find the most influential base tuples, per relation;
- **Query 1C**: after the photo is modified (horses replaced by a cross,
  Table 3), barn *still* wins — use influence + modification queries to
  locate the bad similarity value and compute the fix, then verify that
  church wins after applying it.

Run with::

    python examples/vqa_debugging.py
"""

from repro import P3, P3Config
from repro.data import (
    FIXED_CHURCH_CROSS_SIMILARITY,
    fixed_scene,
    modified_scene,
    original_scene,
)
from repro.queries import modification_query

HOP_LIMIT = 8


def rank_answers(p3: P3) -> list:
    """All derived answers with probabilities, best first."""
    scored = []
    for atom in p3.derived_atoms("ans"):
        scored.append((atom.as_values()[1], p3.probability_of(str(atom))))
    scored.sort(key=lambda pair: -pair[1])
    return scored


def build(scene) -> P3:
    p3 = P3(scene.to_program(), P3Config(hop_limit=HOP_LIMIT))
    p3.evaluate()
    return p3


def main() -> None:
    # ---- the original photo: horses in front of a barn --------------------
    print("=" * 72)
    print("Original photo (horses in the background)")
    print("=" * 72)
    p3 = build(original_scene())
    for word, probability in rank_answers(p3):
        print("  ans(ID1,%-8s) P = %.4f" % (word, probability))
    best = rank_answers(p3)[0][0]
    print("Predicted answer: %s (correct — it is a barn)" % best)

    print("\nQuery 1A: most important derivation of ans(ID1,barn)")
    sufficient = p3.sufficient_provenance("ans", "ID1", "barn", epsilon=0.01)
    top = sufficient.most_important_derivations(p3.probabilities, k=1)[0]
    print("  %s" % top)

    print("\nQuery 1B: most influential base tuples, by relation")
    for relation in ("word", "hasImg", "sim"):
        report = p3.influence("ans", "ID1", "barn", relation=relation)
        score = report.most_influential
        print("  %-7s %-44s %.4f"
              % (relation, score.literal, score.influence))

    # ---- the modified photo: cross instead of horses ------------------------
    print("\n" + "=" * 72)
    print("Modified photo (cross on the building — paper Table 3)")
    print("=" * 72)
    p3 = build(modified_scene())
    for word, probability in rank_answers(p3):
        print("  ans(ID1,%-8s) P = %.4f" % (word, probability))
    best = rank_answers(p3)[0][0]
    print("Predicted answer: %s  <-- BUG: we expected church!" % best)

    print("\nDebugging with provenance (Query 1C):")
    barn_literals = p3.polynomial_of("ans", "ID1", "barn").literals()
    report = p3.influence("ans", "ID1", "church", relation="sim")
    unique = [s for s in report if s.literal not in barn_literals]
    print("  top unique influential tuples for ans(ID1,church)"
          " [paper Table 4]:")
    for score in unique[:3]:
        print("    %-28s %.4f" % (score.literal, score.influence))

    suspect = unique[0].literal
    print("  -> %s is the most influential unique tuple;" % suspect)
    print("     its value %.2f is suspiciously low (cf. sim(barn,cross)=0.30)"
          % p3.probabilities[suspect])

    target = p3.probability_of("ans", "ID1", "barn")
    plan = modification_query(
        p3.polynomial_of("ans", "ID1", "church"), p3.probabilities, target,
        modifiable=lambda lit: lit == suspect)
    print("\n  Modification Query: raise P[ans(ID1,church)] to %.4f by"
          " changing only %s" % (target, suspect))
    print("  " + plan.to_text().replace("\n", "\n  "))
    if plan.steps:
        print("  -> computed fix: set %s to %.2f (paper: 0.09 + 0.42 = 0.51)"
              % (suspect, plan.steps[0].new_probability))

    # ---- after the fix --------------------------------------------------------
    print("\n" + "=" * 72)
    print("After the fix: sim(church,cross) = %.2f"
          % FIXED_CHURCH_CROSS_SIMILARITY)
    print("=" * 72)
    p3 = build(fixed_scene())
    for word, probability in rank_answers(p3):
        print("  ans(ID1,%-8s) P = %.4f" % (word, probability))
    best = rank_answers(p3)[0][0]
    print("Predicted answer: %s %s" % (
        best, "(fixed!)" if best == "church" else "(still wrong?)"))


if __name__ == "__main__":
    main()
