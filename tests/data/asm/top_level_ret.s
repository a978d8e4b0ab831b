; A ret with no caller: a user error on both tiers.
main:
    ret
