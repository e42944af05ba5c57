"""Unit tests for the VQA scene substrate and Section 5.1 narrative."""

import pytest

from repro import P3, P3Config
from repro.data.vqa import (
    DICTIONARY_WORDS,
    FIXED_CHURCH_CROSS_SIMILARITY,
    IMAGE_ID,
    VQAScene,
    fixed_scene,
    modified_scene,
    original_scene,
)
from repro.queries import modification_query

HOP_LIMIT = 8


def evaluate(scene):
    p3 = P3(scene.to_program(), P3Config(hop_limit=HOP_LIMIT))
    p3.evaluate()
    return p3


def best_answer(p3):
    ranked = sorted(
        ((atom.as_values()[1], p3.probability_of(str(atom)))
         for atom in p3.derived_atoms("ans")),
        key=lambda pair: -pair[1])
    return ranked


class TestSceneConstruction:
    def test_similarities_mirrored(self):
        scene = VQAScene("test")
        scene.add_similarity("a", "b", 0.4)
        keys = {str(f.atom): f.probability for f in scene.to_facts()
                if f.atom.relation == "sim"}
        assert keys['sim("a","b")'] == 0.4
        assert keys['sim("b","a")'] == 0.4

    def test_identity_similarity_added(self):
        scene = VQAScene("test")
        scene.add_word("barn")
        keys = {str(f.atom) for f in scene.to_facts()}
        assert 'sim("barn","barn")' in keys

    def test_rejects_invalid_similarity(self):
        scene = VQAScene("test")
        with pytest.raises(ValueError):
            scene.add_similarity("a", "b", 1.5)

    def test_copy_is_independent(self):
        scene = modified_scene()
        clone = scene.copy("clone")
        clone.set_similarity("church", "cross", 0.99)
        assert scene.similarities[("church", "cross")] == 0.09

    def test_all_dictionary_words_become_candidates(self):
        p3 = evaluate(modified_scene())
        candidates = {a.as_values()[1]
                      for a in p3.derived_atoms("candidate")}
        assert candidates >= set(DICTIONARY_WORDS)

    def test_program_uses_figure5_rules(self):
        program = modified_scene().to_program()
        assert {r.label for r in program.rules} == {"r1", "r2", "r3", "r4"}


class TestNarrative:
    def test_original_photo_answers_barn(self):
        ranked = best_answer(evaluate(original_scene()))
        assert ranked[0][0] == "barn"

    def test_modified_photo_still_answers_barn(self):
        # The bug the case study debugs: the photo now shows a church but
        # barn still wins because sim("church","cross") is too low.
        ranked = best_answer(evaluate(modified_scene()))
        assert ranked[0][0] == "barn"
        words = [word for word, _ in ranked]
        assert "church" in words

    def test_fixed_scene_answers_church(self):
        ranked = best_answer(evaluate(fixed_scene()))
        assert ranked[0][0] == "church"

    def test_fix_value_matches_paper(self):
        assert FIXED_CHURCH_CROSS_SIMILARITY == pytest.approx(0.51)
        assert fixed_scene().similarities[("church", "cross")] == 0.51


class TestQuery1B:
    @pytest.fixture(scope="class")
    def p3(self):
        return evaluate(modified_scene())

    def test_most_influential_word_is_barn(self, p3):
        report = p3.influence("ans", IMAGE_ID, "barn", relation="word")
        assert str(report.most_influential.literal) == (
            'word("ID1","barn")')

    def test_most_influential_image_fact_mentions_scene_object(self, p3):
        report = p3.influence("ans", IMAGE_ID, "barn", relation="hasImg")
        top = str(report.most_influential.literal)
        assert top.startswith('hasImg("ID1"')

    def test_table4_unique_influential_ordering(self, p3):
        barn_literals = p3.polynomial_of("ans", IMAGE_ID, "barn").literals()
        report = p3.influence("ans", IMAGE_ID, "church", relation="sim")
        unique = [s for s in report if s.literal not in barn_literals]
        top3 = [str(s.literal) for s in unique[:3]]
        assert top3 == [
            'sim("church","cross")',
            'sim("church","horse")',
            'sim("church","cloud")',
        ]


class TestQuery1C:
    def test_modification_raises_church_similarity(self):
        p3 = evaluate(modified_scene())
        target = p3.probability_of("ans", IMAGE_ID, "barn")
        suspect = p3.literal('sim("church","cross")')
        plan = modification_query(
            p3.polynomial_of("ans", IMAGE_ID, "church"), p3.probabilities,
            target, modifiable=lambda lit: lit == suspect)
        assert plan.reached
        [step] = plan.steps
        assert step.new_probability > 0.3  # well above the buggy 0.09
