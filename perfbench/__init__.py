"""Closed-loop benchmark of the in-process, served and secure round paths."""
