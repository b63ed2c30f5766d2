"""Host-speed benchmark of the PR-DRB simulator (see README.md)."""
