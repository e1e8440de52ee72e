// Package xmatch implements the decision models adapted to the x-tuple
// concept (Sec. IV-B, Fig. 6). The similarity of two x-tuples t1 = {t¹1..tᵏ1}
// and t2 = {t¹2..tˡ2} is derived from their k×l alternative tuple pairs by a
// derivation function ϑ:
//
//   - similarity-based derivation (Fig. 6 left): ϑ maps the similarity
//     vector s⃗ ∈ ℝᵏˣˡ of all alternative pairs to one similarity; the
//     canonical instance is the conditional expectation of Eq. 6,
//   - decision-based derivation (Fig. 6 right): every alternative pair is
//     first classified into {m,p,u}; ϑ maps the matching vector η⃗ to a
//     similarity; the canonical instance is the matching weight
//     P(m)/P(u) of Eq. 7–9,
//   - expected matching result: ϑ = E(η(tⁱ1,tʲ2)|B) with {m=2, p=1, u=0},
//     the further decision-based derivation the paper mentions.
//
// All derivations condition alternative probabilities on tuple membership
// (p(tⁱ)/p(t)), because membership must not influence duplicate detection;
// the Conditioned flag exists as an ablation hook.
//
// Every derivation is written once, as a fold over a PairSource that
// computes alternative-pair comparison vectors as the derivation asks
// for them; no K×L matrix is ever materialized. Comparer runs the
// complete Fig. 6 scheme on x-tuple pairs and is allocation-free in
// steady state through per-comparer scratch. The tests check each
// derivation against its definition: the aggregate over the possible
// worlds (internal/worlds) in which both x-tuples exist.
//
// A Comparer with StopAtU, which the online engines use, lets the
// similarity-based fold stop once a bound on what it has not computed
// proves the similarity below Final.Lambda: it visits the alternative
// pairs heaviest first and their attributes one at a time, as in the
// verification step of threshold similarity joins (Ed-Join, Xiao, Wang
// and Lin, VLDB 2008). A pair it does not stop on is summed in
// canonical order, so its similarity is bit-identical to the full
// fold's.
package xmatch
