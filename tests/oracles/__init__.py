"""Reference implementations the equivalence suites compare ``src/`` to.

Nothing here is imported by the package: an oracle is the previous (or
the obviously-correct) implementation of something ``src/`` now does
faster, kept verbatim so a hypothesis suite can demand equal answers.
"""
