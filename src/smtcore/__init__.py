"""smtcore: small unsatisfiable cores for SMT.

A lazy DPLL(T) solver (CDCL with proof logging plus congruence-closure and
simplex theory backends) that stores every theory lemma it produces, lifts
them to the Boolean level for plug-in propositional core extraction, and
refines the result back to an SMT core.  Includes proof-based and
selector-based baselines, deletion minimization, and all-MUS enumeration
via minimal correction subsets.
"""
from .cnf import CnfError, cnf_convert
from .cores import (METHODS, BridgeError, CoreReport, ExtractionError, ExtractorConfig,
                    boolean_core, check_core, check_refutation, external_bridge,
                    extract_core, minimize_core)
from .dimacs import DimacsDocument, DimacsError, parse_dimacs, read_core
from .mus import McsSet, MusSet, all_minimal_cores, enumerate_mcs, minimal_hitting_sets
from .parser import AssertionSet, ParseError, parse, parse_file, render_instance
from .sat import ProofLog, SatSolver, SatVerdict, check_proof, proof_core, sat_solve, solve_with_selectors
from .smt import SmtSolver, SmtVerdict, TLemma, evaluate_clause, lemma_store_violations, smt_solve
from .terms import (Atom, AtomTable, Clause, Declarations, EufAtom, Formula, LinAtom,
                    LinComb, Literal, PropAtom, SortError, Var, canonical_lin_atom)
from .theory import EufSolver, LraSolver, TheoryVerdict, is_valid_lemma

__version__ = "0.1.0"
