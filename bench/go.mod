module parascope/bench

go 1.24

require parascope v0.0.0

replace parascope => ../
