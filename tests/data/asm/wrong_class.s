; A vector destination on a scalar add: assembly fails on line 3.
main:
    add v1, r2, r3
    halt
