include Support.Json
