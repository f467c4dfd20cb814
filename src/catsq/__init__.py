"""Crossed modules, crossed squares and cat1/cat2-groups over small finite groups."""
