"""UCCA graph parsing through constituent trees.

The package converts semantic graphs with remote edges and discontinuous
units into plain constituent trees (recording what the tree cannot hold
on label markers), parses sentences with a greedy top-down span model,
and restores remote edges with a biaffine classifier over shared BiLSTM
span representations.

Each name is imported from the module that defines it, such as
``from uccatree.conversion import graph_to_tree``.  Importing the package
alone loads none of its modules, nor NumPy.
"""
