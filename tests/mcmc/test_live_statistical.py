"""Statistical correctness of live updates with chain carryover (ISSUE 5).

The claim under test: after a DML update is repaired *in place* — chain
state for untouched variables carried over, fresh variables locally
re-burned — continued sampling targets the **updated** model's
distribution, not some mixture with the pre-update one.

Formally: a chi-square goodness-of-fit test of the post-update
empirical joint distribution against
``FactorGraph.exact_distribution()`` of the updated model must fail to
reject at ``ALPHA = 0.01``, and a deliberately wrong reference (the
same graph under perturbed weights) must be rejected (power check).

Seed policy (tests/README.md): everything fixed, so these are exact
regression tests.  With the recorded seeds the GOF p-value is ≈ 0.50 —
well over an order of magnitude of headroom above ALPHA (thinning is
set to 25 walk-steps per retained sample: the skip-coupled 4-token
model mixes slower than the 3-variable chains of
test_statistical_correctness.py, and under-thinned samples inflate the
Pearson statistic for correct samplers too).
"""

import pytest

import repro
from repro.core.live import graph_signature
from repro.fg import Domain
from repro.fg.weights import Weights
from repro.ie.ner.model import BIAS, EMISSION, SKIP, TRANSITION, SkipChainNerModel
from repro.ie.ner.pdb import TOKEN_SCHEMA
from repro.db.database import Database
from repro.db.shard import ShardSpec
from repro.mcmc import MetropolisHastings, UniformLabelProposer, chi_square_gof
from repro.mcmc.chain import MarkovChain

ALPHA = 0.01
NUM_STEPS = 100_000
THIN = 25
BIO2 = Domain("bio2", ["O", "B-PER"])

TOKENS = [
    (0, 0, "Alice", "O", "B-PER"),
    (1, 0, "said", "O", "O"),
    (2, 0, "Alice", "O", "B-PER"),
]
INSERT = "INSERT INTO TOKEN VALUES (3, 0, 'Alice', 'O', 'B-PER')"


def gof_weights() -> Weights:
    """Mild hand-set weights: every joint state keeps non-negligible
    mass, so the chi-square has many unpooled bins (fitted weights make
    the toy posterior near-deterministic and the test uninformative)."""
    weights = Weights()
    weights.set(EMISSION, ("emit", "Alice", "B-PER"), 0.7)
    weights.set(EMISSION, ("emit", "said", "O"), 0.5)
    weights.set(BIAS, ("bias", "O"), 0.2)
    weights.set(TRANSITION, ("trans", "B-PER", "O"), 0.3)
    weights.set(SKIP, ("skip", "same"), 0.6)
    weights.set(SKIP, ("skip", "diff"), -0.6)
    return weights


def tiny_world():
    db = Database("live-gof")
    table = db.create_table(TOKEN_SCHEMA)
    for row in TOKENS:
        table.insert(row)
    model = SkipChainNerModel(db, weights=gof_weights(), domain=BIO2)
    kernel = MetropolisHastings(
        model.graph, UniformLabelProposer(model.variables), seed=2024
    )
    chain = MarkovChain(kernel, steps_per_sample=3)
    session = repro.connect(db).attach_model(model, chain=chain)
    return session, model, kernel


def joint_counts(kernel, variables, num_steps=NUM_STEPS, thin=THIN):
    counts = {}
    for step in range(num_steps):
        kernel.run(1)
        if step % thin == 0:
            key = tuple(v.value for v in variables)
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestLiveUpdateGof:
    def test_post_update_chain_targets_updated_model(self):
        session, model, kernel = tiny_world()
        query = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
        # Entangle chain state with the pre-update model first: the
        # carryover below starts from a genuinely warm world.
        session.execute(query, samples=20)
        # The update: a fourth token joins the skip group of the two
        # 'Alice' tokens.  Repair + local re-burn, chain carried over.
        session.execute(INSERT)
        rebuilt = SkipChainNerModel(
            session.database, weights=model.weights, domain=BIO2
        )
        assert graph_signature(model.graph) == graph_signature(rebuilt.graph)
        assert len(model.variables) == 4
        # Continued sampling from the carried-over state must target the
        # *updated* posterior.
        observed = joint_counts(kernel, model.variables)
        expected = model.graph.exact_distribution()
        result = chi_square_gof(observed, expected)
        assert not result.rejects(ALPHA), (
            f"post-update GOF rejected: p={result.p_value:.4f}"
        )
        # Documented headroom (tests/README.md): p ≈ 0.50 for this seed.
        assert result.p_value > 0.1
        session.close()

    def test_power_wrong_reference_is_rejected(self):
        session, model, kernel = tiny_world()
        session.execute(INSERT)
        observed = joint_counts(kernel, model.variables)
        # Same state space, perturbed weights: flip the skip preference.
        wrong_weights = model.weights.copy()
        wrong_weights.set(SKIP, ("skip", "same"), -2.0)
        wrong_weights.set(SKIP, ("skip", "diff"), 2.0)
        wrong = SkipChainNerModel(
            session.database, weights=wrong_weights, domain=BIO2
        )
        result = chi_square_gof(observed, wrong.graph.exact_distribution())
        assert result.rejects(ALPHA)
        session.close()

    def test_session_marginals_repooled_to_updated_posterior(self):
        """End-to-end through the SQL surface: post-update tuple
        marginals (re-pooled, view-maintained) approximate the updated
        model's exact answer-membership probability."""
        session, model, kernel = tiny_world()
        query = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
        session.execute(query, samples=10)
        session.execute(INSERT)
        cursor = session.execute(query, samples=4000)
        # pre-update samples were dropped: 4000 + the repaired initial
        assert cursor.num_samples == 4001
        # exact Pr[('Alice',) in answer] = Pr[any Alice token B-PER]
        alice_indices = [
            i
            for i, v in enumerate(model.variables)
            if model.string_of(v) == "Alice"
        ]
        exact = sum(
            probability
            for assignment, probability in model.graph.exact_distribution().items()
            if any(assignment[i] == "B-PER" for i in alice_indices)
        )
        estimated = cursor.marginals().probability(("Alice",))
        assert estimated == pytest.approx(exact, abs=0.05)
        session.close()


class GofShardFactory:
    """The toy model as a shard chain factory (module level, so it
    pickles): document-sharded, BIO2 domain, flat MH proposer."""

    spec = ShardSpec("TOKEN", "DOC_ID")

    def __call__(self, db, seed):
        model = SkipChainNerModel(db, weights=gof_weights(), domain=BIO2)
        kernel = MetropolisHastings(
            model.graph, UniformLabelProposer(model.variables), seed=seed
        )
        chain = MarkovChain(kernel, steps_per_sample=3)
        chain.model = model
        return chain


class TestShardedLiveUpdateGof:
    def test_sharded_chain_across_insert_targets_updated_model(self):
        """A ``shards=2`` unit carried across an INSERT — delta routed
        to its shard, graph repaired in the same chain — samples the
        *updated* shard model's exact distribution."""
        session, _, _ = tiny_world()
        session.execute("INSERT INTO TOKEN VALUES (10, 1, 'Bob', 'O', 'O')")
        session.attach_model(shard_factory=GofShardFactory())
        query = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
        session.execute(query, samples=20, shards=2)
        runner = next(r for k, r in session._runners.items() if k[1] == "sharded")
        session.execute(INSERT)  # doc 0: shard 0, slot 0
        assert session.stats()["runners"]["delta_advances"] == 1
        unit = runner.evaluator.backend._units[0].evaluator
        model = unit.chain.model
        rebuilt = SkipChainNerModel(unit.db, weights=model.weights, domain=BIO2)
        assert graph_signature(model.graph) == graph_signature(rebuilt.graph)
        assert len(model.variables) == 4
        observed = joint_counts(unit.chain.kernel, model.variables)
        result = chi_square_gof(observed, model.graph.exact_distribution())
        assert not result.rejects(ALPHA), (
            f"post-update GOF rejected: p={result.p_value:.4f}"
        )
        # Headroom with the recorded seeds: p ≈ 0.49.
        assert result.p_value > 0.1
        session.close()
