module partdiff

go 1.23
