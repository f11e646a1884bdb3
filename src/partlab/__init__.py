"""Exact counting of restricted partitions and verification of their bounds.

The library models residue-class part sets (all positive integers lying in
chosen residue classes mod m), counts their partitions exactly with
mutually independent engines, and checks every relevant identity and
inequality numerically: the tail-set log bound pi*sqrt(2n|R|/3m), its
classical m=1 specialization, the head/tail convolution identity, the
double-counting recurrence, the weighted-series closed form, and the
pointwise kernel bounds behind the proof, including the counterexample
showing why the full odd-part set resists the same pointwise treatment.
"""
