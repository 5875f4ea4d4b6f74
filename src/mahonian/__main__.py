if __name__ == "__main__":  # python -m mahonian
    from .cli import main
    main()
