"""Frozen reference of the string hash, for differential tests only.

``vhash.py`` here is a verbatim copy of ``hash_strings``, ``string_view``
and ``_mix64`` (with the constants and slicing helpers they use) as they
stood before ``hash_strings`` was rewritten to sum each document with one
``np.add.reduceat`` pass per slice.  It imports nothing from
``json_remedy_ray.functions.vhash``, so the package can be compared
against it bit for bit (tests/test_hash_reference.py).  Never edit it to
make a test pass: a difference is a change to every stored hash.
"""
