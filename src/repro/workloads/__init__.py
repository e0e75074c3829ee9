"""Evaluation workloads: fully-implemented substitutes for the systems the
paper's evaluation runs on.

* :mod:`repro.workloads.myfaces` — the MYFACES-1130 motivating example
  (Fig. 1): servlet processing with numeric-entity conversion.
* :mod:`repro.workloads.minijs` — the Rhino analogue: a small JavaScript-
  like engine (lexer, parser, icode compiler, interpreter) with a registry
  of injectable regressions following the paper's root-cause distribution.
* :mod:`repro.workloads.minixslt` — the Xalan analogue: XML parsing,
  stylesheet compilation to VM opcodes (dynamic code generation), and the
  XALANJ-1725 / XALANJ-1802 regression analogues.
* :mod:`repro.workloads.minidb` — the Derby analogue: a small SQL engine
  (parser, optimising planner, plan runner, lock manager) with worker threads
  and the DERBY-1633 regression analogue.
* :mod:`repro.workloads.invariants` — the Daikon analogue: likely-invariant
  inference with the XorVisitor regression.
* :mod:`repro.workloads.bugs` — the regression-injection framework and the
  root-cause distribution of Sec. 5.1.
"""
