"""Permissioned proof-of-authority chain for data access control.

Registered users request operations on resources; validator nodes
authenticate and score each request with a small neural model layered
under admin priority rules, then record every step in an on-chain audit
log. Grants arrive as encrypted single-use links served by a storage
node. Everything is deterministic under explicit seeds, from key
generation to the network simulator.
"""
