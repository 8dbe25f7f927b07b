"""``python -m qturan <command> ...`` runs the ``qturan`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
