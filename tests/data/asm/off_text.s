; No halt: execution runs off the end of the program text.
main:
    nop
